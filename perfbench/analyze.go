package main

import (
	"fmt"
	"io"
	"sort"

	"zht/internal/wire"
)

// role is the layer a span's self time is charged to.
func role(s *span, frontDoor bool) string {
	switch s.layer {
	case layerOp:
		if frontDoor {
			return "memcached"
		}
		return "client"
	case layerGateway:
		return "client"
	case layerClientCall:
		return "transport"
	case layerHandle:
		if s.replicaApply() {
			return "replica_instance"
		}
		return "instance"
	case layerInstCall:
		return "replica_leg"
	case layerAdmit:
		return "tenant"
	}
	return "unknown"
}

var roles = []string{"memcached", "client", "transport", "instance", "tenant", "replica_leg", "replica_instance"}

// spanTree indexes closed spans by parent and computes self times.
// Children are stored compactly: the children of span i are
// kids[off[i]:off[i+1]].
type spanTree struct {
	spans []span
	off   []int32
	kids  []int32
	self  []int64 // ns; valid for closed spans
}

func (s *span) closed() bool { return s.end > 0 }

// blocks reports whether child holds up its parent: asynchronous
// replica legs run after the parent has answered.
func blocks(child *span) bool { return child.closed() && !child.asyncLeg() }

func (t *spanTree) children(i int32) []int32 { return t.kids[t.off[i]:t.off[i+1]] }

func buildTree(spans []span) *spanTree {
	n := len(spans)
	t := &spanTree{spans: spans, off: make([]int32, n+1), self: make([]int64, n)}
	for i := range spans {
		if p := spans[i].parent; p >= 0 && spans[i].closed() {
			t.off[p+1]++
		}
	}
	for i := 0; i < n; i++ {
		t.off[i+1] += t.off[i]
	}
	t.kids = make([]int32, t.off[n])
	fill := append([]int32(nil), t.off[:n]...)
	for i := range spans {
		if p := spans[i].parent; p >= 0 && spans[i].closed() {
			t.kids[fill[p]] = int32(i)
			fill[p]++
		}
	}
	var ivs []interval
	for i := range spans {
		s := &spans[i]
		if !s.closed() {
			continue
		}
		ivs = ivs[:0]
		for _, k := range t.children(int32(i)) {
			if c := &spans[k]; blocks(c) {
				ivs = append(ivs, interval{c.start, c.end})
			}
		}
		t.self[i] = selfTime(s.start, s.end, ivs)
	}
	return t
}

// criticalPath walks from span i down the blocking chain — at each
// level the child that finished last while its parent was still open —
// adding every visited span's self time to its role.
func (t *spanTree) criticalPath(i int32, frontDoor bool, acc map[string]int64) int64 {
	var sum int64
	for i >= 0 {
		s := &t.spans[i]
		sum += t.self[i]
		acc[role(s, frontDoor)] += t.self[i]
		next := int32(-1)
		for _, k := range t.children(i) {
			c := &t.spans[k]
			if !blocks(c) || c.end > s.end {
				continue
			}
			if next < 0 || c.end > t.spans[next].end {
				next = k
			}
		}
		i = next
	}
	return sum
}

// breakdown is the mean time per operation of one class charged to
// each role along the blocking path.
type breakdown struct {
	name   string
	n      int
	meanUs float64
	roleUs map[string]float64
	resid  float64 // share of the mean the path's self times miss
}

// breakdowns splits every closed operation span's duration along its
// blocking path, per operation class, and returns the overall
// residual share.
func (t *spanTree) breakdowns(frontDoor bool) ([]breakdown, float64) {
	type agg struct {
		n        int
		dur, sum int64
		acc      map[string]int64
	}
	byName := map[string]*agg{}
	var totDur, totSum int64
	for i := range t.spans {
		s := &t.spans[i]
		if s.layer != layerOp || !s.closed() || s.failed {
			continue
		}
		name := classNameOf(s.op)
		if s.batch {
			name = "batch_" + name
		}
		a := byName[name]
		if a == nil {
			a = &agg{acc: map[string]int64{}}
			byName[name] = a
		}
		sum := t.criticalPath(int32(i), frontDoor, a.acc)
		a.n++
		a.dur += s.end - s.start
		a.sum += sum
		totDur += s.end - s.start
		totSum += sum
	}
	var out []breakdown
	for name, a := range byName {
		b := breakdown{name: name, n: a.n, meanUs: float64(a.dur) / float64(a.n) / 1e3, roleUs: map[string]float64{}}
		for r, v := range a.acc {
			b.roleUs[r] = float64(v) / float64(a.n) / 1e3
		}
		b.resid = float64(a.dur-a.sum) / float64(a.dur)
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	if totDur == 0 {
		return out, 0
	}
	return out, float64(totDur-totSum) / float64(totDur)
}

func classNameOf(op wire.Op) string {
	for c, o := range classOp {
		if o == op {
			return classNames[c]
		}
	}
	return op.String()
}

func writeBreakdowns(w io.Writer, bs []breakdown) {
	for _, b := range bs {
		fmt.Fprintf(w, "breakdown %-12s n=%-7d mean=%9.1fus", b.name, b.n, b.meanUs)
		for _, r := range roles {
			if v, ok := b.roleUs[r]; ok {
				fmt.Fprintf(w, "  %s=%.1f", r, v)
			}
		}
		fmt.Fprintf(w, "  residual=%.3f\n", b.resid)
	}
}

// spanStats gathers the duration and self-time samples per span kind
// that the per-layer metrics are read from.
type spanStats struct {
	ops, batchOps, writeOps         int64 // closed op spans; those that are batches; mutations (sub-ops)
	clientSelf                      []int64
	clientCalls, batchCalls         int64
	rtt, rttSelf, batchRtt          []int64
	handles                         int64
	handle, handleSelf, batchHandle []int64
	replicaApply                    []int64
	legs                            []int64
	syncLegs, asyncLegs, failedLegs int64
	admit                           []int64
	sheds                           int64
	mcSelf                          []int64
	gwCalls                         int64
}

func (t *spanTree) stats(frontDoor bool) *spanStats {
	st := &spanStats{}
	for i := range t.spans {
		s := &t.spans[i]
		if !s.closed() {
			continue
		}
		dur := s.end - s.start
		switch s.layer {
		case layerOp:
			st.ops++
			if s.batch {
				st.batchOps++
			}
			if s.op == wire.OpInsert || s.op == wire.OpRemove {
				if s.batch {
					st.writeOps += batchSize
				} else {
					st.writeOps++
				}
			}
			if frontDoor {
				st.mcSelf = append(st.mcSelf, t.self[i])
			} else {
				st.clientSelf = append(st.clientSelf, t.self[i])
			}
		case layerGateway:
			st.gwCalls++
			st.clientSelf = append(st.clientSelf, t.self[i])
		case layerClientCall:
			if s.parent < 0 {
				continue // a straggler started after its operation ended
			}
			st.clientCalls++
			if s.batch {
				st.batchCalls++
				st.batchRtt = append(st.batchRtt, dur)
			} else {
				st.rtt = append(st.rtt, dur)
				st.rttSelf = append(st.rttSelf, t.self[i])
			}
		case layerHandle:
			st.handles++
			switch {
			case s.replicaApply():
				st.replicaApply = append(st.replicaApply, dur)
			case s.batch:
				st.batchHandle = append(st.batchHandle, dur)
			default:
				st.handle = append(st.handle, dur)
				st.handleSelf = append(st.handleSelf, t.self[i])
			}
		case layerInstCall:
			if s.op != wire.OpReplicate {
				continue
			}
			n := int64(1)
			if s.batch {
				n = int64(s.subs)
			}
			st.legs = append(st.legs, dur)
			if s.asyncLeg() {
				st.asyncLegs += n
			} else {
				st.syncLegs += n
			}
			if s.failed || s.status != wire.StatusOK {
				st.failedLegs += n
			}
		case layerAdmit:
			st.admit = append(st.admit, dur)
			if s.failed {
				st.sheds++
			}
		}
	}
	return st
}
