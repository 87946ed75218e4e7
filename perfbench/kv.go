package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"zht/internal/core"
	"zht/internal/hashing"
	"zht/internal/storage"
	"zht/internal/wire"
)

// keyLen is the paper's micro-benchmark key size.
const keyLen = 15

// benchKey names key i of client c: "k<c><13-digit i>".
func benchKey(c, i int) string { return fmt.Sprintf("k%d%013d", c, i) }

// partitions is the partition count of every workload's deployment:
// four per instance, so the durable workload's stores each see enough
// writes to compact several times in one run.
const partitions = 12

// kvSpec describes a closed-loop single-op workload.
type kvSpec struct {
	keys        int     // keys each client owns, all preloaded
	valLen      int     // value bytes
	zipf        float64 // Zipf exponent of key choice; 0 = uniform
	read, write float64 // op mix; removes take the rest
	level       wire.Consistency
	warmOps     int // per client, before the window
	cfg         func(dataDir string) core.Config
	durable     bool // measure space, restart and read back after the window
}

var zeroHop = kvSpec{
	keys: 100_000, valLen: 132, zipf: 1.1, read: 0.9, write: 0.1,
	level: wire.ConsistencyOne, warmOps: 5000,
	cfg: func(string) core.Config {
		return core.Config{NumPartitions: partitions, ReadLevel: wire.ConsistencyOne, WriteLevel: wire.ConsistencyOne}
	},
}

// durableQuorum's 256 keys of 1 KiB per client put about 43 KiB of
// live data in each partition store, so a store compacts roughly
// every 64 KiB of overwrites (NoVoHT's dead-byte floor) — several
// times per run at the write rate group commit allows.
var durableQuorum = kvSpec{
	keys: 256, valLen: 1024, read: 0.40, write: 0.45,
	level: wire.ConsistencyQuorum, warmOps: 100, durable: true,
	cfg: func(dataDir string) core.Config {
		return core.Config{
			NumPartitions: partitions, Replicas: 2,
			DataDir: dataDir, Durability: storage.DurabilityGroup,
			WriteLevel: wire.ConsistencyQuorum, ReadLevel: wire.ConsistencyQuorum,
			AntiEntropy: 100 * time.Millisecond,
		}
	},
}

// kvWorkload runs a kvSpec.
type kvWorkload struct {
	spec   kvSpec
	env    *benchEnv
	cfg    core.Config
	dep    *deployment
	actors []*kvActor
}

// kvActor is one closed-loop client: it owns keys [0, spec.keys) of
// its own namespace and keeps one operation in flight.
type kvActor struct {
	id   int
	w    *kvWorkload
	keys []string
	orc  *oracle
	rng  *rand.Rand
	zipf *rand.Zipf
	ver  uint32
	val  []byte
}

func newKV(spec kvSpec, env *benchEnv) *kvWorkload {
	w := &kvWorkload{spec: spec, env: env}
	w.cfg = spec.cfg(env.dataDir)
	w.cfg.Metrics = env.reg
	for c := 0; c < clients; c++ {
		a := &kvActor{
			id: c, w: w, orc: newOracle(spec.keys),
			rng: rand.New(rand.NewSource(env.seed*1000 + int64(c))),
			val: make([]byte, spec.valLen),
		}
		a.keys = make([]string, spec.keys)
		for i := range a.keys {
			a.keys[i] = benchKey(c, i)
		}
		if spec.zipf > 0 {
			a.zipf = rand.NewZipf(a.rng, spec.zipf, 1, uint64(spec.keys-1))
		}
		w.actors = append(w.actors, a)
	}
	return w
}

func (w *kvWorkload) setup() error {
	var err error
	if w.dep, err = boot(w.cfg, w.env.tr, w.env.cliReg); err != nil {
		return err
	}
	for _, a := range w.actors {
		if err := a.preload(); err != nil {
			return err
		}
	}
	return forEachActor(len(w.actors), func(c int) error {
		a := w.actors[c]
		warm := warmTally()
		for i := 0; i < w.spec.warmOps; i++ {
			if err := a.step(warm); err != nil {
				return err
			}
		}
		return nil
	})
}

// preload inserts every owned key in 64-op batches.
func (a *kvActor) preload() error {
	ops := make([]core.BatchOp, 0, batchSize)
	flush := func(first int) error {
		res, err := a.w.dep.client.Batch(ops)
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		for i, r := range res {
			if r.Err != nil {
				return fmt.Errorf("preload %s: %w", ops[i].Key, r.Err)
			}
			a.orc.acked(first+i, 1)
		}
		ops = ops[:0]
		return nil
	}
	a.ver = 1
	first := 0
	for i, k := range a.keys {
		v := make([]byte, a.w.spec.valLen)
		fillValue(v, a.id, i, 1)
		ops = append(ops, core.BatchOp{Op: wire.OpInsert, Key: k, Value: v})
		if len(ops) == batchSize {
			if err := flush(first); err != nil {
				return err
			}
			first = i + 1
		}
	}
	if len(ops) > 0 {
		return flush(first)
	}
	return nil
}

func (w *kvWorkload) run(start, deadline time.Time) ([]*tally, error) {
	ts := make([]*tally, len(w.actors))
	err := forEachActor(len(w.actors), func(c int) error {
		t := newTally(start, deadline.Sub(start)/nSlices, nSlices)
		ts[c] = t
		for time.Now().Before(deadline) {
			if err := w.actors[c].step(t); err != nil {
				return err
			}
		}
		return nil
	})
	return ts, err
}

// pick chooses the next key: Zipf ranks are scattered over the key
// range by a fixed odd multiplier so hot keys land in every partition.
func (a *kvActor) pick() int {
	n := a.w.spec.keys
	if a.zipf == nil {
		return a.rng.Intn(n)
	}
	return int(a.zipf.Uint64() * 2654435761 % uint64(n))
}

// step issues one operation of the mix, times it and checks it.
func (a *kvActor) step(t *tally) error {
	k := a.pick()
	key := a.keys[k]
	r := a.rng.Float64()
	c := a.w.dep.client
	level := a.w.spec.level
	tr := a.w.env.tr
	switch {
	case r < a.w.spec.read:
		id := tr.beginOp(a.id, wire.OpLookup, false)
		start := time.Now()
		v, err := c.LookupWith(key, level)
		end := time.Now()
		tr.endOp(a.id, id, err != nil && !errors.Is(err, core.ErrNotFound))
		t.attempted++
		if err != nil && !errors.Is(err, core.ErrNotFound) {
			t.failed++
			return nil
		}
		t.record(classRead, end.Sub(start), end, 1)
		got := uint32(absent)
		if err == nil {
			if got, err = a.decode(v, k); err != nil {
				return fmt.Errorf("read %s: %w", key, err)
			}
		}
		return a.judge(t, k, got)
	case r < a.w.spec.read+a.w.spec.write:
		a.ver++
		fillValue(a.val, a.id, k, a.ver)
		id := tr.beginOp(a.id, wire.OpInsert, false)
		start := time.Now()
		err := c.InsertWith(key, a.val, level)
		end := time.Now()
		tr.endOp(a.id, id, err != nil)
		t.attempted++
		if err != nil {
			t.failed++
			a.orc.refused(k, a.ver)
			return nil
		}
		t.record(classWrite, end.Sub(start), end, 1)
		t.userBytes += int64(len(key) + len(a.val))
		a.orc.acked(k, a.ver)
	default:
		id := tr.beginOp(a.id, wire.OpRemove, false)
		start := time.Now()
		err := c.RemoveWith(key, level)
		end := time.Now()
		notFound := errors.Is(err, core.ErrNotFound)
		tr.endOp(a.id, id, err != nil && !notFound)
		t.attempted++
		if err != nil && !notFound {
			t.failed++
			a.orc.refused(k, absent)
			return nil
		}
		t.record(classRemove, end.Sub(start), end, 1)
		if err := a.orc.removed(k, !notFound); err != nil {
			return fmt.Errorf("remove %s: %w", key, err)
		}
	}
	return nil
}

// decode checks a value read for key k and returns its version.
func (a *kvActor) decode(v []byte, k int) (uint32, error) {
	if len(v) != a.w.spec.valLen {
		return 0, fmt.Errorf("value of %d bytes, want %d", len(v), a.w.spec.valLen)
	}
	return decodeVersion(v, a.id, k)
}

// judge applies the oracle to a read of key k that returned got.
func (a *kvActor) judge(t *tally, k int, got uint32) error {
	t.reads++
	switch a.orc.read(k, got) {
	case readResurrected:
		t.resurrected++
	case readWrong:
		return fmt.Errorf("read %s returned version %d, expected one of %v", a.keys[k], got, a.orc.expected(k))
	}
	return nil
}

// finish closes the deployment cleanly; the durable workload first
// measures its data directory, then re-bootstraps on it, times how
// long until every partition answers a read, and reads back every
// owned key.
func (w *kvWorkload) finish(out *phaseResult) error {
	if !w.spec.durable {
		return w.close()
	}
	live := int64(0)
	for _, a := range w.actors {
		for k := range a.keys {
			if !a.orc.certainlyAbsent(k) {
				live += int64(keyLen + w.spec.valLen)
			}
		}
	}
	disk, err := dirBytes(w.env.dataDir)
	if err != nil {
		return err
	}
	out.spaceAmp = float64(disk) / float64(live)
	if err := w.close(); err != nil {
		return fmt.Errorf("clean close: %w", err)
	}
	start := time.Now()
	if w.dep, err = boot(w.cfg, nil, nil); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	for _, key := range w.probeKeys() {
		if _, err := w.dep.client.LookupWith(key, wire.ConsistencyOne); err != nil && !errors.Is(err, core.ErrNotFound) {
			return fmt.Errorf("restart probe %s: %w", key, err)
		}
	}
	out.restartS = time.Since(start).Seconds()
	t := warmTally()
	for _, a := range w.actors {
		for k, key := range a.keys {
			got, err := a.readAt(key, k, w.spec.level)
			if err != nil {
				return fmt.Errorf("read back %s after restart: %w", key, err)
			}
			if !contains(a.orc.expected(k), got) && !a.orc.certainlyAbsent(k) {
				// A quorum read can miss an acknowledged write right
				// after a restart: a replica whose partition store has
				// not been reopened yet answers not-found. The owner's
				// copy decides whether the write survived; a miss it
				// contradicts is counted, a write it lost fails the run.
				own, err := a.readAt(key, k, wire.ConsistencyOne)
				if err != nil {
					return fmt.Errorf("read back %s at the owner after restart: %w", key, err)
				}
				if contains(a.orc.expected(k), own) {
					out.restartQuorumMisses++
					got = own
				}
			}
			if err := a.judge(t, k, got); err != nil {
				return fmt.Errorf("after restart: %w", err)
			}
		}
	}
	out.readBack = t.reads
	out.readBackResurrected = t.resurrected
	return w.close()
}

// readAt reads key k at level and returns the version read.
func (a *kvActor) readAt(key string, k int, level wire.Consistency) (uint32, error) {
	v, err := a.w.dep.client.LookupWith(key, level)
	if errors.Is(err, core.ErrNotFound) {
		return absent, nil
	}
	if err != nil {
		return 0, err
	}
	return a.decode(v, k)
}

// probeKeys returns one key per partition: an owned key where one
// exists, otherwise a probe key hashed into that partition.
func (w *kvWorkload) probeKeys() []string {
	table := w.dep.d.Instance(0).Table()
	hash := hashing.ByName(w.cfg.HashName)
	keys := make([]string, len(table.Owner))
	found := 0
	try := func(k string) {
		if p := table.Partition(hash(k)); keys[p] == "" {
			keys[p] = k
			found++
		}
	}
	for _, a := range w.actors {
		for _, k := range a.keys {
			try(k)
		}
	}
	for i := 0; found < len(keys); i++ {
		try(fmt.Sprintf("probe-%d", i))
	}
	return keys
}

func (w *kvWorkload) close() error {
	if w.dep == nil {
		return nil
	}
	err := w.dep.close()
	w.dep = nil
	return err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}
