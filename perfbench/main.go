// Command perfbench is the repository's benchmark: it runs one named
// workload against a three-instance ZHT deployment inside this
// process, over real loopback TCP, checks every answer against an
// oracle, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced run) by name, with units.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload zero-hop --seed 1 --seconds 10 --trace 0
//
// which builds this package and runs it with the same flags. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. A wrong answer exits non-zero with
// the seed and prints no result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"zht/internal/wire"
)

func main() {
	name := flag.String("workload", "", "workload: zero-hop, durable-quorum, batch64 or front-door")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	dataRoot := flag.String("data", filepath.Join(".bench_build", "data"), "directory for data directories and span files")
	flag.Parse()
	if !slices.Contains(workloadNames, *name) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <zero-hop|durable-quorum|batch64|front-door> --seed <n> --seconds <n> --trace <0|1>")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*dataRoot, 0o755); err != nil {
		fail(*name, *seed, err)
	}
	env := describeEnv(*name, *seed, *seconds, *trace == 1, *dataRoot)
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)

	window := time.Duration(*seconds) * time.Second
	frontDoor := *name == "front-door"
	var ms []metric
	var attempted, failed int64
	if *trace == 0 {
		// Set up five times and report the median, so that work moved
		// into set-up shows without one slow boot deciding it.
		r, err := runPhase(*name, *seed, window, 5, false, *dataRoot)
		if err != nil {
			fail(*name, *seed, err)
		}
		ms = endToEnd(r)
		report(ms, workloadSpecific(r))
		attempted, failed = r.t.attempted+r.readBack, r.t.failed
	} else {
		// Half the window untraced, half traced, on separate
		// deployments: the difference is the tracing overhead.
		wire.SetPoolPoison(true)
		a, err := runPhase(*name, *seed, window/2, 1, false, *dataRoot)
		if err != nil {
			fail(*name, *seed, err)
		}
		b, err := runPhase(*name, *seed, window/2, 1, true, *dataRoot)
		if err != nil {
			fail(*name, *seed, err)
		}
		var bds []breakdown
		ms, bds = perLayer(a, b, frontDoor)
		report(ms, nil)
		writeBreakdowns(os.Stdout, bds)
		path := filepath.Join(*dataRoot, fmt.Sprintf("spans-%s-%d.tsv", *name, *seed))
		if err := saveSpans(path, b.spans); err != nil {
			fail(*name, *seed, err)
		}
		fmt.Printf("spans: first %d of %d written to %s\n", min(spanFileLimit, len(b.spans)), len(b.spans), path)
		attempted = a.t.attempted + b.t.attempted + a.readBack + b.readBack
		failed = a.t.failed + b.t.failed
	}
	out := map[string]any{"correct": true, "attempted": attempted, "failed": failed}
	mm := map[string]any{}
	for _, m := range ms {
		mm[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	out["metrics"] = mm
	line, err := json.Marshal(out)
	if err != nil {
		fail(*name, *seed, err)
	}
	fmt.Println(string(line))
}

// spanFileLimit bounds the span file; the metrics use every span.
const spanFileLimit = 200_000

func saveSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans, spanFileLimit); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints every metric with its unit and how it was measured.
func report(ms, extra []metric) {
	for _, m := range append(ms, extra...) {
		fmt.Printf("%-42s %14.4f %-8s %s\n", m.name, m.value, m.unit, m.note)
	}
}

func fail(name string, seed int64, err error) {
	fmt.Fprintf(os.Stderr, "perfbench: FAIL workload=%s seed=%d: %v\n", name, seed, err)
	os.Exit(1)
}
