package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"zht/internal/wire"
)

func TestTailQuantileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100_000, 0.99}, // never above the percentile asked for
		{1000, 0.99},    // exactly ten samples beyond p99
		{999, 0.9},      // 9.99 beyond p99: fall back
		{100, 0.9},
		{99, 0.5},
		{20, 0.5},
		{19, 0}, // not even the median has ten beyond it
	} {
		if got := tailQuantile(c.n, 0.99); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	ns := make([]int64, 500)
	for i := range ns {
		ns[i] = int64(500-i) * 1000 // 1..500 µs, unsorted
	}
	tm := summarize(ns, 0.99)
	if tm.tailQ != 0.9 || tm.tail != 450 || tm.p50 != 250 || tm.n != 500 {
		t.Errorf("summarize(500 samples) = %+v, want p50 250, tail p90 = 450", tm)
	}
}

func TestSelfTimeUnionsOverlappingChildren(t *testing.T) {
	children := []interval{{90, 120}, {10, 40}, {30, 60}, {70, 80}, {200, 300}}
	// Covered: [10,60) once despite the overlap, [70,80), and [90,100)
	// clipped to the parent; [200,300) lies outside it.
	if got := selfTime(0, 100, children); got != 30 {
		t.Errorf("selfTime = %d, want 30", got)
	}
	if got := selfTime(0, 100, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestTreeQuorumFanOut(t *testing.T) {
	// A quorum read: three parallel client calls, the op returning
	// after the second; an asynchronous replica leg under a write's
	// handle does not count against the handle.
	spans := []span{
		{start: 0, end: 100, parent: -1, layer: layerOp, op: wire.OpLookup},
		{start: 10, end: 60, parent: 0, layer: layerClientCall},
		{start: 12, end: 90, parent: 0, layer: layerClientCall},
		{start: 14, end: 150, parent: 0, layer: layerClientCall}, // straggler
		{start: 20, end: 50, parent: 2, layer: layerHandle},
		{start: 30, end: 200, parent: 4, layer: layerInstCall, op: wire.OpReplicate}, // async leg
	}
	tree := buildTree(spans)
	if tree.self[0] != 10 { // covered [10,100)
		t.Errorf("op self = %d, want 10", tree.self[0])
	}
	if tree.self[2] != 48 { // 78 minus the handle's 30
		t.Errorf("call self = %d, want 48", tree.self[2])
	}
	if tree.self[4] != 30 {
		t.Errorf("handle self = %d, want 30 (async leg excluded)", tree.self[4])
	}
	acc := map[string]int64{}
	// Blocking path: op -> call 2 (last to end inside the op) -> handle.
	if sum := tree.criticalPath(0, false, acc); sum != 10+48+30 {
		t.Errorf("critical path = %d, want 88", sum)
	}
	if acc["client"] != 10 || acc["transport"] != 48 || acc["instance"] != 30 {
		t.Errorf("path by role = %v", acc)
	}
}

func TestOracleSequences(t *testing.T) {
	o := newOracle(1)
	check := func(ver uint32, want verdict) {
		t.Helper()
		if got := o.read(0, ver); got != want {
			t.Fatalf("read(%d) = %v, want %v (state %v)", ver, got, want, o.expected(0))
		}
	}
	check(absent, readOK)
	if err := o.removed(0, false); err != nil { // remove of an absent key
		t.Fatal(err)
	}
	o.acked(0, 1)
	check(1, readOK)
	check(absent, readWrong) // an acknowledged write cannot vanish
	if err := o.removed(0, true); err != nil {
		t.Fatal(err)
	}
	check(1, readResurrected) // the removed value came back
	check(absent, readOK)
	o.acked(0, 2) // re-insert
	check(2, readOK)
	check(1, readWrong) // an older removed value while present is wrong
	if err := o.removed(0, false); err == nil {
		t.Fatal("not-found remove of a present key was accepted")
	}

	// A refused write may or may not have applied; the first read
	// settles it.
	o.refused(0, 3)
	check(3, readOK)
	check(2, readWrong)
	o.refused(0, 4)
	check(3, readOK)
	check(4, readWrong)
	o.refused(0, absent) // a refused remove
	check(absent, readOK)
	check(3, readResurrected)
}

func TestValuesAreSelfDescribing(t *testing.T) {
	v := make([]byte, 132)
	// Key 200868125 is 0x0bf9011d: written little-endian at offset 0 it
	// would start the value with the reserved envelope prefix 0x1d 0x01.
	fillValue(v, 1, 200868125, 7)
	if v[0] == 0x1d {
		t.Fatalf("value starts with the tenant envelope magic: % x", v[:2])
	}
	if ver, err := decodeVersion(v, 1, 200868125); err != nil || ver != 7 {
		t.Fatalf("decodeVersion = %d, %v", ver, err)
	}
	if _, err := decodeVersion(v, 0, 200868125); err == nil {
		t.Error("another client's value was accepted")
	}
	v[100] ^= 1
	if _, err := decodeVersion(v, 1, 200868125); err == nil {
		t.Error("a corrupted value was accepted")
	}
}

func TestFirstSubOfBatchEnvelope(t *testing.T) {
	reqs := []*wire.Request{
		{Op: wire.OpReplicate, Flags: wire.FlagNoReplicate, Key: "k00000000000042", Value: []byte("v")},
		{Op: wire.OpReplicate, Key: "other"},
	}
	env := wire.NewBatchRequest(reqs)
	defer wire.ReleaseBatchRequest(env)
	key, op, flags, subs := firstSub(env.Aux)
	if key != "k00000000000042" || op != wire.OpReplicate || flags != wire.FlagNoReplicate || subs != 2 {
		t.Errorf("firstSub = %q %v %d %d", key, op, flags, subs)
	}
	if keyClient("\x1dfd\x1dk30000000000001") != 3 || keyClient("probe-1") != -1 {
		t.Error("keyClient misreads benchmark keys")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric names and units the
// program prints in step with the record the benchmark is judged by.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to this directory")
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	r := &phaseResult{t: &tally{}, setupS: []float64{1}}
	got := endToEnd(r)
	pl, _ := perLayer(r, r, false)
	for _, c := range []struct {
		name string
		want []struct{ Name, Unit string }
		got  []metric
	}{{"end_to_end", bench.EndToEnd, got}, {"per_layer", bench.PerLayer, pl}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: program prints %d metrics, BENCHMARK.json lists %d", c.name, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.name != c.want[i].Name || m.unit != c.want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", c.name, i, m.name, m.unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
}

// TestWorkloadsTraced runs every workload briefly with tracing and
// buffer poisoning on: a wrapper that kept a pooled request or response
// past its call would corrupt a value and fail the oracle.
func TestWorkloadsTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("boots four deployments")
	}
	wire.SetPoolPoison(true)
	defer wire.SetPoolPoison(false)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			r, err := runPhase(name, 1, time.Second, 1, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if r.t.completed == 0 || len(r.spans) == 0 {
				t.Fatalf("%d units completed, %d spans", r.t.completed, len(r.spans))
			}
			pl, _ := perLayer(r, r, name == "front-door")
			for _, m := range pl {
				if m.name == "client.calls_per_op" && name == "zero-hop" && m.value != 1 {
					t.Errorf("zero-hop makes %v client calls per op, want 1", m.value)
				}
			}
		})
	}
}
