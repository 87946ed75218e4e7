package main

import (
	"errors"
	"fmt"
	"time"

	"zht/internal/core"
	"zht/internal/wire"
)

// batchSize is the sub-operations per Client.Batch call.
const batchSize = 64

// batchValLen is the paper's micro-benchmark value size.
const batchValLen = 132

// batchWorkload runs the paper's insert -> lookup -> remove sequence
// over fresh sequential keys as 64-op Client.Batch calls, on a
// memory-only deployment without replicas.
type batchWorkload struct {
	env    *benchEnv
	cfg    core.Config
	dep    *deployment
	actors []*batchActor
}

// warmRounds is how many insert/lookup/remove rounds each client runs
// before the window.
const warmRounds = 100

type batchActor struct {
	id   int
	w    *batchWorkload
	next int // next fresh key index
	orc  *oracle
	ops  []core.BatchOp
	vals [][]byte
}

func newBatch(env *benchEnv) *batchWorkload {
	w := &batchWorkload{env: env, cfg: core.Config{NumPartitions: partitions, Metrics: env.reg}}
	for c := 0; c < clients; c++ {
		a := &batchActor{
			id: c, w: w, orc: newOracle(batchSize),
			// Each seed starts the fresh keys at its own offset.
			next: int(splitmix(uint64(env.seed)) % 1e9),
			ops:  make([]core.BatchOp, batchSize),
			vals: make([][]byte, batchSize),
		}
		for i := range a.vals {
			a.vals[i] = make([]byte, batchValLen)
		}
		w.actors = append(w.actors, a)
	}
	return w
}

func (w *batchWorkload) setup() error {
	var err error
	if w.dep, err = boot(w.cfg, w.env.tr, w.env.cliReg); err != nil {
		return err
	}
	return forEachActor(len(w.actors), func(c int) error {
		warm := warmTally()
		for i := 0; i < warmRounds; i++ {
			if err := w.actors[c].round(warm); err != nil {
				return err
			}
		}
		return nil
	})
}

func (w *batchWorkload) run(start, deadline time.Time) ([]*tally, error) {
	ts := make([]*tally, len(w.actors))
	err := forEachActor(len(w.actors), func(c int) error {
		t := newTally(start, deadline.Sub(start)/nSlices, nSlices)
		ts[c] = t
		for time.Now().Before(deadline) {
			if err := w.actors[c].round(t); err != nil {
				return err
			}
		}
		return nil
	})
	return ts, err
}

// call issues one timed Batch of the current ops and returns its
// results with the call's latency and end time.
func (a *batchActor) call(t *tally, c class) ([]core.BatchResult, time.Duration, time.Time, error) {
	tr := a.w.env.tr
	id := tr.beginOp(a.id, classOp[c], true)
	start := time.Now()
	res, err := a.w.dep.client.Batch(a.ops)
	end := time.Now()
	tr.endOp(a.id, id, err != nil)
	t.attempted += batchSize
	if err != nil {
		t.failed += batchSize
	}
	return res, end.Sub(start), end, err
}

// round inserts 64 fresh keys, looks them up and removes them, each
// step one Batch call, checking every sub-result. A call's latency is
// recorded once; each sub-operation that completed counts toward
// throughput.
func (a *batchActor) round(t *tally) error {
	base := a.next
	a.next += batchSize
	a.orc.reset()
	for i := range a.ops {
		fillValue(a.vals[i], a.id, base+i, 1)
		a.ops[i] = core.BatchOp{Op: wire.OpInsert, Key: benchKey(a.id, base+i), Value: a.vals[i]}
	}
	res, d, end, err := a.call(t, classWrite)
	var ok int64
	for i := range a.ops {
		switch {
		case err != nil:
			a.orc.refused(i, 1)
		case res[i].Err != nil:
			t.failed++
			a.orc.refused(i, 1)
		default:
			ok++
			t.userBytes += int64(keyLen + batchValLen)
			a.orc.acked(i, 1)
		}
		a.ops[i].Op, a.ops[i].Value = wire.OpLookup, nil
	}
	if err == nil {
		t.record(classWrite, d, end, ok)
	}
	if res, d, end, err = a.call(t, classRead); err == nil {
		ok = 0
		for i, r := range res {
			got := uint32(absent)
			switch {
			case r.Err == nil:
				if len(r.Value) != batchValLen {
					return fmt.Errorf("batch lookup %s: value of %d bytes", a.ops[i].Key, len(r.Value))
				}
				if got, err = decodeVersion(r.Value, a.id, base+i); err != nil {
					return fmt.Errorf("batch lookup %s: %w", a.ops[i].Key, err)
				}
			case !errors.Is(r.Err, core.ErrNotFound):
				t.failed++
				continue
			}
			ok++
			t.reads++
			if a.orc.read(i, got) != readOK {
				return fmt.Errorf("batch lookup %s returned version %d, expected one of %v", a.ops[i].Key, got, a.orc.expected(i))
			}
		}
		t.record(classRead, d, end, ok)
	}
	for i := range a.ops {
		a.ops[i].Op = wire.OpRemove
	}
	if res, d, end, err = a.call(t, classRemove); err == nil {
		ok = 0
		for i, r := range res {
			notFound := errors.Is(r.Err, core.ErrNotFound)
			if r.Err != nil && !notFound {
				t.failed++
				continue
			}
			ok++
			if err := a.orc.removed(i, !notFound); err != nil {
				return fmt.Errorf("batch remove %s: %w", a.ops[i].Key, err)
			}
		}
		t.record(classRemove, d, end, ok)
	}
	return nil
}

func (w *batchWorkload) finish(*phaseResult) error { return w.close() }

func (w *batchWorkload) close() error {
	if w.dep == nil {
		return nil
	}
	err := w.dep.close()
	w.dep = nil
	return err
}
