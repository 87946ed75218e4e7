package main

import (
	"time"

	"zht/internal/wire"
)

// class is the latency class an operation is reported under.
type class int

const (
	classRead class = iota
	classWrite
	classRemove
	nClasses
)

var classNames = [nClasses]string{"read", "write", "remove"}

// classOp is the op a class's spans carry.
var classOp = [nClasses]wire.Op{wire.OpLookup, wire.OpInsert, wire.OpRemove}

// nSlices is how many equal time slices a window is cut into. Every
// end-to-end figure is computed per slice and reported as the median
// over slices, so a burst of interference (another tenant of the
// machine taking the CPU for a few seconds) moves at most a minority
// of slices instead of the whole run.
const nSlices = 10

// slice is what one client measured in one time slice.
type slice struct {
	lat       [nClasses][]int64 // ns per completed operation
	completed int64             // throughput units: ops, or sub-ops of a batch
}

// tally is what one client measured. Every operation is timed; there
// is no sampling.
type tally struct {
	start     time.Time
	sliceLen  time.Duration
	slices    []slice
	attempted int64 // operations (batch64: sub-operations)
	failed    int64 // failed or refused, of attempted
	completed int64
	reads     int64 // reads judged by the oracle
	// resurrected counts reads that returned a value their client had
	// removed: the tombstone-free remove anomaly.
	resurrected int64
	userBytes   int64 // key+value bytes of acknowledged writes
}

// newTally starts a tally for a window of n slices of sliceLen from
// start.
func newTally(start time.Time, sliceLen time.Duration, n int) *tally {
	return &tally{start: start, sliceLen: sliceLen, slices: make([]slice, n)}
}

// warmTally is a tally for work outside the measured window.
func warmTally() *tally { return newTally(time.Now(), time.Hour, 1) }

// at returns the slice an operation that ended at end belongs to; an
// operation ending after the window counts in the last slice.
func (t *tally) at(end time.Time) *slice {
	i := int(end.Sub(t.start) / t.sliceLen)
	if i < 0 {
		i = 0
	}
	if i >= len(t.slices) {
		i = len(t.slices) - 1
	}
	return &t.slices[i]
}

// record adds one completed operation of class c that took d and
// ended at end, worth units of throughput.
func (t *tally) record(c class, d time.Duration, end time.Time, units int64) {
	s := t.at(end)
	s.lat[c] = append(s.lat[c], int64(d))
	s.completed += units
	t.completed += units
}

// merge folds the tallies of all clients of one window into one.
func merge(ts []*tally) *tally {
	out := newTally(ts[0].start, ts[0].sliceLen, len(ts[0].slices))
	for _, t := range ts {
		for i := range t.slices {
			for c := range t.slices[i].lat {
				out.slices[i].lat[c] = append(out.slices[i].lat[c], t.slices[i].lat[c]...)
			}
			out.slices[i].completed += t.slices[i].completed
		}
		out.attempted += t.attempted
		out.failed += t.failed
		out.completed += t.completed
		out.reads += t.reads
		out.resurrected += t.resurrected
		out.userBytes += t.userBytes
	}
	return out
}
