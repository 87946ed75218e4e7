package core

// Tests for the single KV partition path: a single request is a batch
// group of one (applyBatchPartition), so a request must get the same
// verdict whether it arrives alone or as the only slot of an OpBatch.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"zht/internal/metrics"
	"zht/internal/ring"
	"zht/internal/wire"
)

// shedAll is an AdmissionHook that sheds every request with a fixed
// backoff hint.
type shedAll struct{ retry time.Duration }

func (h shedAll) Admit(string, int) (func(), time.Duration, bool) { return nil, h.retry, false }

// replicaOf returns the deployment instance holding partition p's
// first replica in table.
func replicaOf(t *testing.T, d *Deployment, table *ring.Table, p int) *Instance {
	t.Helper()
	id := table.ReplicasOf(p, 1)[0].ID
	for _, in := range d.Instances() {
		if in.ID() == id {
			return in
		}
	}
	t.Fatalf("replica %q of partition %d not in the deployment", id, p)
	return nil
}

// TestSingleOpBatchParity sends each case both as a single request and
// as a 1-op OpBatch envelope, each against a fresh deployment, and
// requires the same status, error text, backoff hint, table presence
// and value.
func TestSingleOpBatchParity(t *testing.T) {
	type sender func(in *Instance, req *wire.Request) *wire.Response
	cases := []struct {
		name string
		want wire.Status
		run  func(t *testing.T, send sender) *wire.Response
	}{
		{"wrong-owner", wire.StatusWrongOwner, func(t *testing.T, send sender) *wire.Response {
			d, _, _ := startDeployment(t, Config{NumPartitions: 8, Replicas: 1, RetryBase: time.Millisecond}, 2)
			key, _ := ownedKey(d.Instance(0).Table(), d.Instance(0).hashf, 0)
			return send(d.Instance(1), &wire.Request{Op: wire.OpInsert, Key: key, Value: []byte("v")})
		}},
		{"too-large", wire.StatusTooLarge, func(t *testing.T, send sender) *wire.Response {
			d, _, _ := startDeployment(t, Config{NumPartitions: 8, RetryBase: time.Millisecond, MaxValueLen: 4}, 2)
			return send(d.Instance(0), &wire.Request{Op: wire.OpInsert, Key: "k", Value: []byte("12345")})
		}},
		{"busy", wire.StatusBusy, func(t *testing.T, send sender) *wire.Response {
			cfg := Config{NumPartitions: 8, RetryBase: time.Millisecond, Admission: shedAll{retry: 7 * time.Millisecond}}
			d, _, _ := startDeployment(t, cfg, 2)
			return send(d.Instance(0), &wire.Request{Op: wire.OpLookup, Key: "k"})
		}},
		{"failover-serve", wire.StatusOK, func(t *testing.T, send sender) *wire.Response {
			reg := metrics.NewRegistry()
			cfg := Config{NumPartitions: 8, Replicas: 1, RetryBase: time.Millisecond, AntiEntropy: 50 * time.Millisecond, Metrics: reg}
			d, _, c := startDeployment(t, cfg, 3)
			table := d.Instance(0).Table()
			key, p := ownedKey(table, d.Instance(0).hashf, 0)
			if err := c.Insert(key, []byte("v")); err != nil {
				t.Fatal(err)
			}
			rep := replicaOf(t, d, table, p)
			nt := table.Clone()
			nt.Status[0] = ring.Failed
			nt.Epoch++
			if r := rep.Handle(&wire.Request{Op: wire.OpDelta, Aux: ring.EncodeTable(nt)}); r.Status != wire.StatusOK {
				t.Fatalf("table adoption: %v %s", r.Status, r.Err)
			}
			resp := send(rep, &wire.Request{Op: wire.OpLookup, Key: key})
			// The failover read schedules one read-repair round.
			repairs := reg.Counter("zht.repair.read_repairs")
			for deadline := time.Now().Add(5 * time.Second); repairs.Value() == 0 && time.Now().Before(deadline); {
				time.Sleep(5 * time.Millisecond)
			}
			if n := repairs.Value(); n != 1 {
				t.Errorf("zht.repair.read_repairs = %d after a failover lookup, want 1", n)
			}
			return resp
		}},
		{"replica-read", wire.StatusOK, func(t *testing.T, send sender) *wire.Response {
			d, _, c := startDeployment(t, Config{NumPartitions: 8, Replicas: 1, RetryBase: time.Millisecond}, 3)
			table := d.Instance(0).Table()
			key, p := ownedKey(table, d.Instance(0).hashf, 0)
			if err := c.Insert(key, []byte("v")); err != nil {
				t.Fatal(err)
			}
			return send(replicaOf(t, d, table, p), &wire.Request{Op: wire.OpLookup, Key: key, Flags: wire.FlagReplicaRead})
		}},
		{"rolled-back-migration", wire.StatusOK, func(t *testing.T, send sender) *wire.Response {
			d, _, _ := startDeployment(t, Config{NumPartitions: 8, RetryBase: time.Millisecond}, 2)
			in0 := d.Instance(0)
			key, p := ownedKey(in0.Table(), in0.hashf, 0)
			if r := in0.Handle(&wire.Request{Op: wire.OpMigrate, Partition: int64(p), Key: "joiner"}); r.Status != wire.StatusOK {
				t.Fatalf("pull: %v %s", r.Status, r.Err)
			}
			// The insert queues behind the migration gate until the
			// abort rolls the move back; the owner then serves it.
			done := make(chan *wire.Response, 1)
			go func() { done <- send(in0, &wire.Request{Op: wire.OpInsert, Key: key, Value: []byte("v")}) }()
			time.Sleep(20 * time.Millisecond)
			if r := in0.Handle(&wire.Request{Op: wire.OpMigrate, Partition: int64(p), Aux: []byte("abort")}); r.Status != wire.StatusOK {
				t.Fatalf("abort: %v %s", r.Status, r.Err)
			}
			select {
			case resp := <-done:
				return resp
			case <-time.After(10 * time.Second):
				t.Fatal("insert still queued 10s after the rollback")
				return nil
			}
		}},
	}
	single := func(in *Instance, req *wire.Request) *wire.Response { return in.Handle(req) }
	batched := func(in *Instance, req *wire.Request) *wire.Response {
		rs, err := wire.UnpackBatchResponses(in.Handle(wire.NewBatchRequest([]*wire.Request{req})), 1)
		if err != nil {
			return &wire.Response{Status: wire.StatusError, Err: "unpack: " + err.Error()}
		}
		return rs[0]
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			one := tc.run(t, single)
			grp := tc.run(t, batched)
			if one.Status != tc.want {
				t.Fatalf("single: status %v %q, want %v", one.Status, one.Err, tc.want)
			}
			if grp.Status != one.Status || grp.Err != one.Err || grp.RetryAfter != one.RetryAfter ||
				(len(grp.Table) > 0) != (len(one.Table) > 0) || string(grp.Value) != string(one.Value) {
				t.Fatalf("batch slot differs from single op:\n single: %v %q retry=%d table=%t value=%q\n batch:  %v %q retry=%d table=%t value=%q",
					one.Status, one.Err, one.RetryAfter, len(one.Table) > 0, one.Value,
					grp.Status, grp.Err, grp.RetryAfter, len(grp.Table) > 0, grp.Value)
			}
		})
	}
}

// TestReplicateBadPartition: a replication leg naming a partition
// outside [0, NumPartitions) is refused like the other partition
// handlers refuse it, and opens no store.
func TestReplicateBadPartition(t *testing.T) {
	d, _, _ := startDeployment(t, Config{NumPartitions: 4, Replicas: 1, RetryBase: time.Millisecond}, 2)
	in := d.Instance(0)
	for _, p := range []int64{-3, 4, 1 << 40} {
		resp := in.Handle(&wire.Request{Op: wire.OpReplicate, Partition: p, Key: "k", Value: []byte("v"),
			Version: 1, Flags: wire.FlagNoReplicate, Aux: []byte{byte(wire.OpInsert)}})
		if resp.Status != wire.StatusError || resp.Err != "core: bad partition" {
			t.Errorf("leg for partition %d: %v %q, want the bad-partition error", p, resp.Status, resp.Err)
		}
	}
	if n := in.LocalKeys(); n != 0 {
		t.Fatalf("LocalKeys = %d after refused legs, want 0", n)
	}
}

// TestMixedWritersConverge races single-op writers against 64-op
// multi-key batch writers on one small set of overlapping keys at
// Replicas=2. A batch group locks all its keys' stripes in ascending
// order while single writers lock one each, so the run must finish
// without deadlock, and every partition's digest must agree across
// the three copies.
func TestMixedWritersConverge(t *testing.T) {
	cfg := Config{NumPartitions: 6, Replicas: 2, RetryBase: time.Millisecond}
	// Closed only once every write succeeded: closing a deployment
	// with handlers stuck on a stripe would hang the test instead of
	// failing it.
	d, _, err := BootstrapInproc(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 48
	pick := func(rng *rand.Rand) (wire.Op, string) {
		k := fmt.Sprintf("k%d", rng.Intn(keys))
		switch rng.Intn(4) {
		case 0:
			return wire.OpRemove, k
		case 1:
			return wire.OpAppend, k
		}
		return wire.OpInsert, k
	}
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		c, err := d.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, c *Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			val := []byte(fmt.Sprintf("w%d", w))
			for i := 0; i < 16; i++ {
				if w%2 == 0 {
					// Single-op writer: one stripe per request.
					for j := 0; j < 16; j++ {
						op, k := pick(rng)
						var err error
						switch op {
						case wire.OpRemove:
							err = c.Remove(k)
						case wire.OpAppend:
							err = c.Append(k, val)
						default:
							err = c.Insert(k, val)
						}
						if err != nil && !errors.Is(err, ErrNotFound) {
							errs <- fmt.Errorf("writer %d: %v %s: %w", w, op, k, err)
							return
						}
					}
					continue
				}
				// Batch writer: 64 ops spanning every partition and
				// many stripes per group.
				ops := make([]BatchOp, 64)
				for j := range ops {
					op, k := pick(rng)
					ops[j] = BatchOp{Op: op, Key: k, Value: val}
				}
				rs, err := c.Batch(ops)
				if err != nil {
					errs <- fmt.Errorf("writer %d: batch: %w", w, err)
					return
				}
				for j, r := range rs {
					if r.Err != nil && !errors.Is(r.Err, ErrNotFound) {
						errs <- fmt.Errorf("writer %d: batch op %d %v %s: %w", w, j, ops[j].Op, ops[j].Key, r.Err)
						return
					}
				}
			}
		}(w, c)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("writers still running after 30s: stripe locking deadlocked")
	}
	close(errs)
	for err := range errs {
		t.Fatalf("%v (an op stuck on a stripe lock times out)", err)
	}
	t.Cleanup(func() { d.Close() })
	d.Drain()
	for p := 0; p < cfg.NumPartitions; p++ {
		want := d.Instance(0).PartitionDigest(p)
		for i := 1; i < 3; i++ {
			if got := d.Instance(i).PartitionDigest(p); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("partition %d: instance %d digest differs from instance 0's", p, i)
			}
		}
	}
}
