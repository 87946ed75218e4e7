#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload zero-hop --seed 1 --seconds 10 --trace 0

The Go package in this directory is built into the build directory
($CARGO_TARGET_DIR, default .bench_build) with every Go cache and
scratch directory kept inside it, then run with the same arguments.
The last line of its standard output is the JSON result. The exit
code is non-zero, with no result printed, when the build fails (for
example outside a full checkout of the repository) or an answer is
wrong.
"""

import argparse
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["zero-hop", "durable-quorum", "batch64", "front-door"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    go = shutil.which("go")
    if go is None and os.environ.get("GOROOT"):
        go = os.path.join(os.environ["GOROOT"], "bin", "go")
    if go is None or not os.path.exists(go):
        sys.exit("perfbench: no go toolchain on PATH")

    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod"), ("GOTMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config")):
        env[var] = os.path.join(build, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOWORK="off", GOFLAGS="", CGO_ENABLED="0")

    binary = os.path.join(build, "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        sys.exit("perfbench: build failed")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data", os.path.join(build, "data")]
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run exceeded %ds" % RUN_TIMEOUT_S)
    sys.exit(rc)


if __name__ == "__main__":
    main()
