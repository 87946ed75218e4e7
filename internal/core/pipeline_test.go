package core

// Tests for the pipelined replicated write (applyGroup): the owner
// applies and submits its WAL record, sends the replica legs, and only
// then waits for its local commit.

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"zht/internal/metrics"
	"zht/internal/repair"
	"zht/internal/ring"
	"zht/internal/storage"
	"zht/internal/transport"
	"zht/internal/wire"
)

// gatedKV is a partition store whose local commit waits are scripted
// by gate. PutV and Remove wait through the gate as well, so the
// scripted commit sits in front of the owner whichever way it applies
// a write: split (ticket, legs, Commit) or whole (PutV, then legs).
type gatedKV struct {
	*repair.Tracked
	gate func() error
}

func (g *gatedKV) Commit(t storage.Ticket) error {
	if err := g.Tracked.Commit(t); err != nil {
		return err
	}
	return g.gate()
}

func (g *gatedKV) PutV(key string, val []byte, ver uint64) error {
	t, err := g.Tracked.PutVTicket(key, val, ver)
	if err != nil {
		return err
	}
	return g.Commit(t)
}

func (g *gatedKV) Remove(key string) (bool, error) {
	ok, t, err := g.Tracked.RemoveTicket(key)
	if err != nil || !ok {
		return ok, err
	}
	return true, g.Commit(t)
}

// gateStore swaps partition p's store on in for a gatedKV around it.
func gateStore(t *testing.T, in *Instance, p int, gate func() error) {
	t.Helper()
	s, err := in.store(p)
	if err != nil {
		t.Fatal(err)
	}
	in.smu.Lock()
	in.stores[p] = &gatedKV{Tracked: s.(*repair.Tracked), gate: gate}
	in.smu.Unlock()
}

// ownedKey returns a key whose partition instance idx of table owns.
func ownedKey(table *ring.Table, hash func(string) uint64, idx int) (string, int) {
	for i := 0; ; i++ {
		k := fmt.Sprintf("key-%d", i)
		if p := table.Partition(hash(k)); table.Owner[p] == idx {
			return k, p
		}
	}
}

// legCaller acknowledges every replica leg and closes syncLeg when the
// first synchronous one arrives.
type legCaller struct {
	once    sync.Once
	syncLeg chan struct{}
}

func (c *legCaller) Call(addr string, req *wire.Request) (*wire.Response, error) {
	if req.Op == wire.OpReplicate && req.Flags&wire.FlagSyncReplica != 0 {
		c.once.Do(func() { close(c.syncLeg) })
	}
	r := wire.GetResponse()
	r.Status = wire.StatusOK
	return r, nil
}

func (c *legCaller) CallBatch(addr string, reqs []*wire.Request) ([]*wire.Response, error) {
	rs := make([]*wire.Response, len(reqs))
	for i, r := range reqs {
		rs[i], _ = c.Call(addr, r)
	}
	return rs, nil
}

func (c *legCaller) Close() error { return nil }

// handleWithin runs in.Handle(req) and fails the test if it has not
// answered after d, instead of hanging the suite.
func handleWithin(t *testing.T, in *Instance, req *wire.Request, d time.Duration) *wire.Response {
	t.Helper()
	done := make(chan *wire.Response, 1)
	go func() { done <- in.Handle(req) }()
	select {
	case resp := <-done:
		return resp
	case <-time.After(d):
		t.Fatalf("%v %q still unanswered after %v", req.Op, req.Key, d)
		return nil
	}
}

// TestSyncLegLeavesBeforeLocalCommitWait drives the owner directly
// with a store whose commit wait only ends once the inter-instance
// caller has seen the sync replica leg. The write succeeds only if the
// leg goes out before the owner waits; an owner that waits first times
// out in the gate and answers an error.
func TestSyncLegLeavesBeforeLocalCommitWait(t *testing.T) {
	caller := &legCaller{syncLeg: make(chan struct{})}
	members := []ring.Instance{{ID: "a", Addr: "a", Node: "na"}, {ID: "b", Addr: "b", Node: "nb"}}
	table, err := ring.New(4, members)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(Config{NumPartitions: 4, Replicas: 1, RetryBase: time.Millisecond}, members[0], table, caller)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	key, p := ownedKey(table, in.hashf, 0)
	gateStore(t, in, p, func() error {
		select {
		case <-caller.syncLeg:
			return nil
		case <-time.After(2 * time.Second):
			return errors.New("local commit waited before the sync leg was sent")
		}
	})
	for _, op := range []wire.Op{wire.OpInsert, wire.OpRemove} {
		req := &wire.Request{Op: op, Key: key, Value: []byte("v"), Consistency: wire.ConsistencyQuorum}
		resp := handleWithin(t, in, req, 10*time.Second)
		if resp.Status != wire.StatusOK {
			t.Fatalf("%v: status %v %q", op, resp.Status, resp.Err)
		}
	}
}

// TestLocalCommitFailureAfterAckedLeg: the replica acknowledges the
// leg but the owner's own commit fails. The client gets an error
// promptly, and — like a refused quorum, not a rollback — the write
// is applied on both copies and may still be read.
func TestLocalCommitFailureAfterAckedLeg(t *testing.T) {
	cfg := Config{NumPartitions: 8, Replicas: 1, RetryBase: time.Millisecond, OpRetries: 1}
	d, _, c := startDeployment(t, cfg, 2)
	owner := d.Instance(0)
	key, p := ownedKey(owner.Table(), owner.hashf, 0)
	gateStore(t, owner, p, func() error { return storage.ErrBroken })

	done := make(chan error, 1)
	go func() { done <- c.InsertWith(key, []byte("v"), wire.ConsistencyQuorum) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "local commit failed") {
			t.Fatalf("Insert = %v, want the local commit failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Insert still unanswered after 10s")
	}
	if n := d.Instance(1).PartitionKeys(p); n != 1 {
		t.Fatalf("replica holds %d keys of partition %d, want the acked leg's 1", n, p)
	}
	if v, err := c.Lookup(key); err != nil || string(v) != "v" {
		t.Fatalf("Lookup after failed commit = %q %v, want the applied value", v, err)
	}
}

// bootstrapEach starts one instance per config on a shared in-process
// registry; the configs must agree on everything but per-instance
// settings such as Metrics.
func bootstrapEach(t *testing.T, cfgs ...Config) ([]*Instance, *transport.Registry) {
	t.Helper()
	members := make([]ring.Instance, len(cfgs))
	for i := range members {
		members[i] = ring.Instance{ID: ring.InstanceID(fmt.Sprintf("zht-%04d", i)), Addr: fmt.Sprintf("zht-%04d", i), Node: fmt.Sprintf("node-%04d", i)}
	}
	table, err := ring.New(cfgs[0].NumPartitions, members)
	if err != nil {
		t.Fatal(err)
	}
	reg := transport.NewRegistry()
	var ins []*Instance
	for i, cfg := range cfgs {
		in, err := NewInstance(cfg, members[i], table, reg.NewClient())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { in.Close() })
		if _, err := reg.Listen(members[i].Addr, in.Handle); err != nil {
			t.Fatal(err)
		}
		ins = append(ins, in)
	}
	return ins, reg
}

// TestDurableBatchWaitsOnce: a 64-op group-durability batch to one
// partition commits the owner's WAL a handful of times, not once per
// sub-op as a per-op wait would.
func TestDurableBatchWaitsOnce(t *testing.T) {
	dir := t.TempDir()
	base := Config{NumPartitions: 4, Replicas: 1, RetryBase: time.Millisecond, DataDir: dir, Durability: storage.DurabilityGroup}
	ownerCfg := base
	ownerCfg.Metrics = metrics.NewRegistry()
	ins, reg := bootstrapEach(t, ownerCfg, base)
	table := ins[0].Table()
	_, p := ownedKey(table, ins[0].hashf, 0)
	var ops []BatchOp
	for i := 0; len(ops) < 64; i++ {
		if k := fmt.Sprintf("b-%d", i); table.Partition(ins[0].hashf(k)) == p {
			ops = append(ops, BatchOp{Op: wire.OpInsert, Key: k, Value: []byte("v")})
		}
	}
	c, err := NewClient(base, table, reg.NewClient())
	if err != nil {
		t.Fatal(err)
	}
	commits := ownerCfg.Metrics.Counter("zht.storage.wal.commits")
	before := commits.Value()
	rs, err := c.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
	}
	n := commits.Value() - before
	t.Logf("owner WAL commits for a 64-op batch: %d", n)
	if n >= 16 {
		t.Fatalf("owner WAL commits for a 64-op batch = %d, want far fewer than 64", n)
	}
}

// TestConcurrentQuorumWritesConverge races QUORUM inserts and removes
// on a small set of overlapping keys at Replicas=2 over real NoVoHT
// stores, then requires every partition's digest to agree across all
// three copies: applying, fanning out and committing under the key's
// stripe keeps every copy's per-key order the owner's.
func TestConcurrentQuorumWritesConverge(t *testing.T) {
	cfg := Config{NumPartitions: 6, Replicas: 2, RetryBase: time.Millisecond, DataDir: t.TempDir(), Durability: storage.DurabilityGroup}
	d, _, _ := startDeployment(t, cfg, 3)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		c, err := d.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, c *Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 60; i++ {
				k := fmt.Sprintf("k%d", rng.Intn(12))
				var err error
				if rng.Intn(3) == 0 {
					if err = c.RemoveWith(k, wire.ConsistencyQuorum); errors.Is(err, ErrNotFound) {
						err = nil
					}
				} else {
					err = c.InsertWith(k, []byte(fmt.Sprintf("w%d-%d", w, i)), wire.ConsistencyQuorum)
				}
				if err != nil {
					errs <- fmt.Errorf("writer %d op %d on %s: %w", w, i, k, err)
					return
				}
			}
		}(w, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
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

// TestQuorumReadsAfterRestart: right after a re-bootstrap on the same
// data directory, a QUORUM read of every acknowledged key finds it.
// Replica reads of partitions an instance holds open the store; they
// used to answer NotFound until something else opened it, and two such
// answers outvoted the owner.
func TestQuorumReadsAfterRestart(t *testing.T) {
	cfg := Config{NumPartitions: 12, Replicas: 2, RetryBase: time.Millisecond, DataDir: t.TempDir(), Durability: storage.DurabilityGroup}
	d, _, c := startDeployment(t, cfg, 3)
	const n = 120
	for i := 0; i < n; i++ {
		if err := c.InsertWith(fmt.Sprintf("r-%d", i), []byte(fmt.Sprintf("v%d", i)), wire.ConsistencyQuorum); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, c2 := startDeployment(t, cfg, 3)
	misses := 0
	for i := 0; i < n; i++ {
		v, err := c2.LookupWith(fmt.Sprintf("r-%d", i), wire.ConsistencyQuorum)
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			misses++
			t.Errorf("r-%d after restart = %q %v", i, v, err)
		}
	}
	if misses > 0 {
		t.Fatalf("%d of %d acknowledged keys missed by QUORUM reads after restart", misses, n)
	}
}
