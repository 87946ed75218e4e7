package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"zht/internal/metrics"
)

// clients is the number of load-generating clients: one per CPU, so
// the closed loops offer as much concurrency as the machine runs.
// Keys name their client with one digit.
var clients = min(max(runtime.NumCPU(), 1), 9)

// benchEnv is what one setup of a workload runs with.
type benchEnv struct {
	seed    int64
	tr      *tracer           // nil: untraced
	reg     *metrics.Registry // deployment metrics; nil when untraced
	cliReg  *metrics.Registry // client transport metrics; nil when untraced
	dataDir string
}

// workload is one named traffic mix.
type workload interface {
	// setup boots a fresh deployment and brings it to the state the
	// window measures: preloaded and warmed up.
	setup() error
	// run drives the measured window until deadline.
	run(start, deadline time.Time) ([]*tally, error)
	// finish runs the checks that follow the window and stops the
	// deployment.
	finish(out *phaseResult) error
	// close stops the deployment without further checks.
	close() error
}

var workloadNames = []string{"zero-hop", "durable-quorum", "batch64", "front-door"}

func newWorkload(name string, env *benchEnv) workload {
	switch name {
	case "zero-hop":
		return newKV(zeroHop, env)
	case "durable-quorum":
		return newKV(durableQuorum, env)
	case "batch64":
		return newBatch(env)
	case "front-door":
		return newFrontDoor(env)
	}
	return nil
}

// forEachActor runs fn for actors 0..n-1 concurrently and returns the
// first error once all have returned.
func forEachActor(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// phaseResult is everything one measured window produced.
type phaseResult struct {
	setupS  []float64
	elapsed time.Duration
	t       *tally // raw samples are dropped once win is computed
	win     window
	cpuNs   int64
	heapMiB float64
	mallocs uint64
	gcPause time.Duration
	ioWrite int64
	// Registry snapshots at the window's start and end.
	reg0, reg1, cli0, cli1 metrics.Snapshot
	spans                  []span
	// durable-quorum only
	spaceAmp, restartS            float64
	readBack, readBackResurrected int64
	restartQuorumMisses           int64 // read-back quorum reads the owner's copy contradicted
}

func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// runPhase sets the workload up `setups` times (keeping the last
// deployment), measures one window on it, and runs the post-window
// checks. Each setup is timed from boot to the end of warm-up.
func runPhase(name string, seed int64, length time.Duration, setups int, traced bool, dataRoot string) (*phaseResult, error) {
	res := &phaseResult{}
	var w workload
	var env *benchEnv
	for i := 0; i < setups; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("close after setup %d: %w", i, err)
			}
			if err := os.RemoveAll(env.dataDir); err != nil {
				return nil, err
			}
		}
		env = &benchEnv{seed: seed, dataDir: filepath.Join(dataRoot, fmt.Sprintf("%s-%d-%t-%d", name, os.Getpid(), traced, i))}
		if traced {
			env.reg, env.cliReg = metrics.NewRegistry(), metrics.NewRegistry()
			env.tr = newTracer(clients, keyClient)
		}
		if err := os.MkdirAll(env.dataDir, 0o755); err != nil {
			return nil, err
		}
		w = newWorkload(name, env)
		start := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			os.RemoveAll(env.dataDir)
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.setupS = append(res.setupS, time.Since(start).Seconds())
	}
	defer os.RemoveAll(env.dataDir)

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	res.reg0, res.cli0 = env.reg.Snapshot(), env.cliReg.Snapshot()
	io0 := procIOWriteBytes()
	if env.tr != nil {
		env.tr.active.Store(true)
	}
	start := time.Now()
	steal0, cpu0 := readSteal(), cpuTime()
	ts, err := w.run(start, start.Add(length))
	res.elapsed = time.Since(start)
	res.cpuNs = cpuTime() - cpu0
	if env.tr != nil {
		env.tr.active.Store(false)
	}
	res.ioWrite = procIOWriteBytes() - io0
	res.reg1, res.cli1 = env.reg.Snapshot(), env.cliReg.Snapshot()
	if err != nil {
		w.close()
		return nil, err
	}
	res.t = merge(ts)
	res.win = summarizeWindow(res.t, res.elapsed)
	res.win.stealFrac = readSteal().since(steal0)
	// Drop the raw samples so the heap reading sees the deployment,
	// not the benchmark's own latency arrays.
	res.t.slices, ts = nil, nil
	// Two collections: the first moves sync.Pool contents to the
	// victim cache, the second frees them.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	res.heapMiB = float64(ms1.HeapAlloc) / (1 << 20)
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	if env.tr != nil {
		res.spans = env.tr.snapshot()
	}
	if err := w.finish(res); err != nil {
		return nil, err
	}
	return res, nil
}

// window is one measured window reduced to its reported figures.
type window struct {
	throughput float64          // units per second
	lat        [nClasses]timing // p50: median over slices; tail: the whole window
	stealFrac  float64          // share of the machine's CPU time the host took
}

func summarizeWindow(t *tally, elapsed time.Duration) window {
	w := window{throughput: float64(t.completed) / elapsed.Seconds()}
	var p50s [nClasses][]float64
	var all [nClasses][]int64
	for i := range t.slices {
		for c, lat := range t.slices[i].lat {
			if len(lat) > 0 {
				p50s[c] = append(p50s[c], summarize(lat, 0.5).p50)
				all[c] = append(all[c], lat...)
			}
		}
	}
	for c := range w.lat {
		w.lat[c] = summarize(all[c], 0.99)
		w.lat[c].p50 = median(p50s[c])
	}
	return w
}

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
	note       string // how it was measured: sample count, source
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// p50 reports class c's median latency in µs: the median over slices
// of each slice's median.
func (w *window) p50(c class, name string) metric {
	return metric{name, "us", w.lat[c].p50, fmt.Sprintf("n=%d, median of %d slices", w.lat[c].n, nSlices)}
}

// p99 reports class c's p99 latency over the whole window in µs, or the
// highest percentile the tail rule allows.
func (w *window) p99(c class, name string) metric {
	tm := w.lat[c]
	note := fmt.Sprintf("n=%d", tm.n)
	if tm.tailQ != 0.99 {
		note += fmt.Sprintf("; too few samples for p99, reports p%g", tm.tailQ*100)
	}
	return metric{name, "us", tm.tail, note}
}

// endToEnd is what a user of the deployment sees, from an untraced
// window: the figures that stay steady on a shared machine. Throughput,
// tail latency and CPU per operation move with the CPU the host takes
// from the machine, so they are reported among the traced run's
// metrics instead (see README.md).
func endToEnd(r *phaseResult) []metric {
	return []metric{
		{"setup_s", "s", median(r.setupS), fmt.Sprintf("median of %d setups %v", len(r.setupS), r.setupS)},
		r.win.p50(classRead, "read_p50_us"),
		r.win.p50(classWrite, "write_p50_us"),
		{"heap_mb", "MiB", r.heapMiB, "live heap after forced collections"},
	}
}

// workloadSpecific are the end-to-end figures that are not steady
// enough to bound, exist on only some workloads, or can be zero; the
// benchmark record carries them among the traced run's metrics under
// an "e2e." prefix.
func workloadSpecific(r *phaseResult) []metric {
	return []metric{
		{"e2e.throughput_ops_s", "ops/s", r.win.throughput, fmt.Sprintf("%d ops in %.3fs", r.t.completed, r.elapsed.Seconds())},
		{"e2e.cpu_us_per_op", "us", ratio(float64(r.cpuNs)/1e3, float64(r.t.completed)), "user+sys of the process per op or sub-op"},
		r.win.p99(classRead, "e2e.read_p99_us"),
		r.win.p99(classWrite, "e2e.write_p99_us"),
		r.win.p50(classRemove, "e2e.remove_p50_us"),
		r.win.p99(classRemove, "e2e.remove_p99_us"),
		{"e2e.error_rate", "fraction", ratio(float64(r.t.failed), float64(r.t.attempted)), fmt.Sprintf("%d of %d", r.t.failed, r.t.attempted)},
		{"e2e.resurrect_rate", "fraction", ratio(float64(r.t.resurrected), float64(r.t.reads)), fmt.Sprintf("%d of %d reads", r.t.resurrected, r.t.reads)},
		{"e2e.space_amp", "ratio", r.spaceAmp, "data-dir bytes / live user bytes"},
		{"e2e.restart_s", "s", r.restartS, "re-bootstrap until every partition answered"},
		{"e2e.restart_quorum_misses", "count", float64(r.restartQuorumMisses), fmt.Sprintf("of %d keys read back (%d resurrected)", r.readBack, r.readBackResurrected)},
		{"host.steal_frac", "fraction", r.win.stealFrac, "CPU time the host took from this machine in the window (/proc/stat)"},
	}
}

func delta(a, b metrics.Snapshot, names ...string) float64 {
	var d int64
	for _, n := range names {
		d += b.Counters[n] - a.Counters[n]
	}
	return float64(d)
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// pctUS is the q-quantile of ns in µs.
func pctUS(ns []int64, q float64) float64 {
	sorted := append([]int64(nil), ns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return us(percentile(sorted, q))
}

// perLayer computes the traced run's metrics: a is the untraced half,
// b the traced half of the same workload and seed.
func perLayer(a, b *phaseResult, frontDoor bool) ([]metric, []breakdown) {
	tree := buildTree(b.spans)
	st := tree.stats(frontDoor)
	bds, resid := tree.breakdowns(frontDoor)
	ops := float64(st.ops)
	units := float64(b.t.completed)
	hist := func(name string) metrics.HistogramSnapshot { return b.reg1.Histograms[name] }
	ms := []metric{
		{"client.self_us.p50", "us", pctUS(st.clientSelf, 0.5), fmt.Sprintf("n=%d", len(st.clientSelf))},
		{"client.calls_per_op", "calls", ratio(float64(st.clientCalls), ops), fmt.Sprintf("%d calls / %d ops", st.clientCalls, st.ops)},
		{"client.retries_per_kop", "count", 1000 * ratio(delta(b.reg0, b.reg1, "zht.client.retries", "zht.client.busy_retries", "zht.client.wrong_owner"), ops), "registry"},
		{"client.envelopes_per_batch", "count", ratio(float64(st.batchCalls), float64(st.batchOps)), fmt.Sprintf("%d envelopes / %d batches", st.batchCalls, st.batchOps)},
		{"transport.rtt_us.p50", "us", pctUS(st.rtt, 0.5), fmt.Sprintf("n=%d", len(st.rtt))},
		{"transport.rtt_us.p99", "us", pctUS(st.rtt, 0.99), fmt.Sprintf("n=%d", len(st.rtt))},
		{"transport.self_us.p50", "us", pctUS(st.rttSelf, 0.5), fmt.Sprintf("n=%d", len(st.rttSelf))},
		{"transport.batch_rtt_us.p50", "us", pctUS(st.batchRtt, 0.5), fmt.Sprintf("n=%d", len(st.batchRtt))},
		{"transport.bytes_per_op", "bytes", ratio(delta(b.cli0, b.cli1, "zht.transport.bytes_in", "zht.transport.bytes_out"), units), "client caller, per op or sub-op"},
		{"transport.dials", "count", delta(b.cli0, b.cli1, "zht.transport.dials") + delta(b.reg0, b.reg1, "zht.transport.dials"), "in window"},
		{"instance.handle_us.p50", "us", pctUS(st.handle, 0.5), fmt.Sprintf("n=%d", len(st.handle))},
		{"instance.handle_us.p99", "us", pctUS(st.handle, 0.99), fmt.Sprintf("n=%d", len(st.handle))},
		{"instance.batch_handle_us.p50", "us", pctUS(st.batchHandle, 0.5), fmt.Sprintf("n=%d", len(st.batchHandle))},
		{"instance.self_us.p50", "us", pctUS(st.handleSelf, 0.5), fmt.Sprintf("n=%d", len(st.handleSelf))},
		{"instance.replica_apply_us.p50", "us", pctUS(st.replicaApply, 0.5), fmt.Sprintf("n=%d", len(st.replicaApply))},
		{"instance.requests_per_op", "count", ratio(float64(st.handles), ops), fmt.Sprintf("%d handled / %d ops", st.handles, st.ops)},
		{"replica.leg_us.p50", "us", pctUS(st.legs, 0.5), fmt.Sprintf("n=%d", len(st.legs))},
		{"replica.leg_us.p99", "us", pctUS(st.legs, 0.99), fmt.Sprintf("n=%d", len(st.legs))},
		{"replica.sync_legs_per_write", "count", ratio(float64(st.syncLegs), float64(st.writeOps)), fmt.Sprintf("%d legs / %d writes", st.syncLegs, st.writeOps)},
		{"replica.async_legs_per_write", "count", ratio(float64(st.asyncLegs), float64(st.writeOps)), fmt.Sprintf("%d legs / %d writes", st.asyncLegs, st.writeOps)},
		{"replica.failed_legs", "count", float64(st.failedLegs), "in window"},
		{"consistency.stale_reads_repaired_per_kop", "count", 1000 * ratio(delta(b.reg0, b.reg1, "zht.consistency.stale_reads_repaired"), ops), "registry"},
		{"consistency.version_conflicts", "count", delta(b.reg0, b.reg1, "zht.consistency.version_conflicts"), "registry, in window"},
		{"novoht.put_us.p50", "us", us(hist("zht.novoht.put.latency_ns").P50), "registry, 1-in-16 sampled, since boot"},
		{"novoht.put_us.p99", "us", us(hist("zht.novoht.put.latency_ns").P99), "registry, 1-in-16 sampled, since boot"},
		{"novoht.get_us.p50", "us", us(hist("zht.novoht.get.latency_ns").P50), "registry, 1-in-16 sampled, since boot"},
		{"wal.fsync_us.p50", "us", us(hist("zht.storage.wal.fsync_ns").P50), "registry, 1-in-16 sampled, since boot"},
		{"wal.fsync_us.p99", "us", us(hist("zht.storage.wal.fsync_ns").P99), "registry, 1-in-16 sampled, since boot"},
		{"wal.records_per_commit", "count", hist("zht.storage.wal.batch.size").Mean, "registry mean, since boot"},
		{"wal.fsyncs_per_write", "count", ratio(delta(b.reg0, b.reg1, "zht.storage.wal.commits"), float64(b.win.lat[classWrite].n+b.win.lat[classRemove].n)), "group commits per acknowledged write op"},
		{"novoht.compactions", "count", delta(b.reg0, b.reg1, "zht.novoht.compactions"), "in window"},
		{"storage.device_bytes_per_user_byte", "ratio", ratio(float64(b.ioWrite), float64(b.t.userBytes)), "/proc/self/io write_bytes"},
		{"repair.digest_syncs_per_s", "1/s", delta(b.reg0, b.reg1, "zht.repair.digest_syncs") / b.elapsed.Seconds(), "registry"},
		{"repair.ranges_pulled", "count", delta(b.reg0, b.reg1, "zht.repair.ranges_pulled"), "registry, in window"},
		{"repair.read_repairs", "count", delta(b.reg0, b.reg1, "zht.repair.read_repairs"), "registry, in window"},
		{"tenant.admit_us.p50", "us", pctUS(st.admit, 0.5), fmt.Sprintf("n=%d", len(st.admit))},
		{"tenant.shed_frac", "fraction", ratio(float64(st.sheds), float64(len(st.admit))), fmt.Sprintf("%d of %d", st.sheds, len(st.admit))},
		{"memcached.self_us.p50", "us", pctUS(st.mcSelf, 0.5), fmt.Sprintf("n=%d", len(st.mcSelf))},
		{"memcached.backend_calls_per_cmd", "count", ratio(float64(st.gwCalls), ops), fmt.Sprintf("%d calls / %d commands", st.gwCalls, st.ops)},
		{"process.allocs_per_op", "count", ratio(float64(a.mallocs), float64(a.t.completed)), "untraced half"},
		{"process.gc_pause_ms", "ms", a.gcPause.Seconds() * 1e3, "untraced half"},
		{"trace.overhead_frac", "fraction", 1 - ratio(b.win.throughput, a.win.throughput), "throughput lost by the traced half"},
		{"trace.residual_frac", "fraction", resid, "operation time off the blocking path's self times"},
	}
	return append(ms, workloadSpecific(a)...), bds
}
