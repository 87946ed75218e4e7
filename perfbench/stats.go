package main

import (
	"math"
	"sort"
)

// minBeyond is the tail rule every reported timing follows: a
// percentile is reported only when at least minBeyond samples lie
// beyond it, so a tail figure is never read off a handful of samples.
const minBeyond = 10

// rank is the 1-based nearest-rank position of the q-quantile among n
// samples. The epsilon keeps q*n that is an integer in exact
// arithmetic (0.9*100) from rounding up a rank in floating point.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) of the
// sorted samples, or 0 for none.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(q, len(sorted))-1]
}

// tailQuantile returns the highest quantile no larger than want that
// has at least minBeyond samples beyond it among n samples, stepping
// down through 0.999, 0.99, 0.9 and 0.5. It returns 0 when even the
// median lacks minBeyond samples above it.
func tailQuantile(n int, want float64) float64 {
	for _, q := range []float64{0.999, 0.99, 0.9, 0.5} {
		if q <= want && n > 0 && n-rank(q, n) >= minBeyond {
			return q
		}
	}
	return 0
}

// timing summarises one latency series: median, the requested tail
// percentile (or the highest one the tail rule allows), and the sample
// count that backs them.
type timing struct {
	n     int
	p50   float64 // µs
	tail  float64 // µs
	tailQ float64 // the quantile tail actually reports
}

// summarize sorts ns in place and reports it in microseconds.
func summarize(ns []int64, wantTail float64) timing {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	t := timing{n: len(ns)}
	if len(ns) == 0 {
		return t
	}
	t.p50 = float64(percentile(ns, 0.5)) / 1e3
	t.tailQ = tailQuantile(len(ns), wantTail)
	if t.tailQ == 0 {
		t.tailQ = 0.5
	}
	t.tail = float64(percentile(ns, t.tailQ)) / 1e3
	return t
}

// interval is a half-open [start, end) time range in nanoseconds.
type interval struct{ start, end int64 }

// coveredWithin returns how much of [lo, hi) the union of ivs covers.
// Overlapping intervals (parallel children, such as quorum fan-out
// legs) count once. ivs is sorted in place.
func coveredWithin(lo, hi int64, ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	curS, curE := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e <= s {
			continue
		}
		if open && s <= curE {
			if e > curE {
				curE = e
			}
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part of it its children
// cover.
func selfTime(start, end int64, children []interval) int64 {
	return end - start - coveredWithin(start, end, children)
}
