#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

Run from the repository root:

    python3 perfbench/steady.py --workload zero-hop --seeds 1-10 [--out f.json]

runs the benchmark once per seed and prints, per end-to-end metric of
BENCHMARK.json, the median, the quartiles (statistics.quantiles, n=4)
and the spread: the interquartile distance as a share of the median,
next to the metric's bound. Each run's figures and the share of CPU
time the host stole from the machine go to standard error. With --out
it also writes every run's values and the summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    here = os.path.dirname(os.path.abspath(__file__))
    runs = []
    for seed in seeds(args.seeds):
        start = time.time()
        out = subprocess.run(
            [sys.executable, os.path.join(here, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit("seed %d failed (exit %d):\n%s" % (seed, out.returncode, out.stderr))
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        # The report above the result names the host's CPU steal in the
        # window, which explains most outlying runs on a shared machine.
        steal = next((float(l.split()[1]) for l in lines if l.startswith("host.steal_frac")), None)
        runs.append({"seed": seed, "wall_s": round(time.time() - start, 1), "host_steal_frac": steal,
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
        print("seed %d done in %.1fs, host steal %s: %s" % (
            seed, time.time() - start, steal,
            " ".join("%s=%.4g" % kv for kv in sorted(runs[-1]["metrics"].items()))), file=sys.stderr)

    summary = {}
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"]}
        print("%-18s median %12.4f  q1 %12.4f  q3 %12.4f  spread %.3f  bound %.2f%s" % (
            m["name"], med, q1, q3, spread, m["bound"],
            "" if m["name"] == "setup_s" or spread <= m["bound"] else "  OVER BOUND"))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seeds": args.seeds, "runs": runs,
                       "summary": summary}, f, indent=1)


if __name__ == "__main__":
    main()
