package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"zht/internal/core"
	"zht/internal/memcached"
	"zht/internal/tenant"
	"zht/internal/transport"
	"zht/internal/wire"
)

// layer names the boundary a span was recorded at. Every span comes
// from a wrapper in this package around a seam the program already
// exposes; nothing inside the program is instrumented.
type layer uint8

const (
	// layerOp is one benchmark operation: a client API call in the
	// closed loops, a memcached command on the front door.
	layerOp layer = iota
	// layerGateway is one memcached.Store call the gateway makes.
	layerGateway
	// layerClientCall is one client transport call (Call or CallBatch).
	layerClientCall
	// layerHandle is one instance handler invocation.
	layerHandle
	// layerInstCall is one inter-instance transport call: replica legs,
	// read-repair, anti-entropy.
	layerInstCall
	// layerAdmit is one admission-hook decision.
	layerAdmit
)

var layerNames = [...]string{"op", "gateway", "client_call", "handle", "inst_call", "admit"}

// span is one timed interval. It keeps only copied scalars: never a
// *wire.Request or *wire.Response, whose pooled memory is recycled
// the moment the call returns (DESIGN.md §11).
type span struct {
	start, end int64 // ns since the tracer's epoch; end 0 = still open
	parent     int32 // index into spans; -1 = root
	layer      layer
	op         wire.Op     // the request's op; for layerOp the op class
	flags      uint8       // the request's flags (first sub-request for batches)
	status     wire.Status // the response status of a call
	batch      bool
	failed     bool
	subs       int32 // sub-requests carried by a batch
}

// replicaApply reports whether a handle span applied a replica leg.
func (s *span) replicaApply() bool { return s.flags&wire.FlagNoReplicate != 0 }

// asyncLeg reports whether an inter-instance span is an asynchronous
// replica leg; the instance does not wait for it, so it never counts
// against its parent's self time.
func (s *span) asyncLeg() bool {
	return s.layer == layerInstCall && s.op == wire.OpReplicate && s.flags&wire.FlagSyncReplica == 0
}

// tracer records spans while active. Spans link to their parent by
// key: every client owns a disjoint key range and keeps one operation
// in flight, so the client owning a key and the (destination, key)
// pair of a call identify the enclosing span.
type tracer struct {
	epoch  time.Time
	active atomic.Bool
	actor  func(key string) int // owning client of a key, -1 if none

	mu       sync.Mutex
	spans    []span
	openCall map[string][]int32 // "addr|key" -> open call spans
	openHdl  map[string][]int32 // key -> open client-facing handle spans
	cur      []int32            // per client: innermost open op/gateway span
}

func newTracer(clients int, actor func(string) int) *tracer {
	t := &tracer{
		epoch:    time.Now(),
		actor:    actor,
		openCall: map[string][]int32{},
		openHdl:  map[string][]int32{},
		cur:      make([]int32, clients),
	}
	for i := range t.cur {
		t.cur[i] = -1
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add appends a span and returns its index; callers hold t.mu.
func (t *tracer) add(s span) int32 {
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

func last(ids []int32) int32 {
	if len(ids) == 0 {
		return -1
	}
	return ids[len(ids)-1]
}

func drop(ids []int32, id int32) []int32 {
	for i := len(ids) - 1; i >= 0; i-- {
		if ids[i] == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// beginClient opens a client-level span (an op or a gateway call) for
// client, nested in that client's current one.
func (t *tracer) beginClient(l layer, client int, op wire.Op, batch bool) (id, prev int32) {
	if t == nil || !t.active.Load() || client < 0 {
		return -1, -1
	}
	start := t.now()
	t.mu.Lock()
	prev = t.cur[client]
	id = t.add(span{start: start, parent: prev, layer: l, op: op, batch: batch})
	t.cur[client] = id
	t.mu.Unlock()
	return id, prev
}

// endClient closes a span opened by beginClient.
func (t *tracer) endClient(client int, id, prev int32, failed bool) {
	if id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].end, t.spans[id].failed = end, failed
	t.cur[client] = prev
	t.mu.Unlock()
}

// beginOp opens a benchmark operation span for client.
func (t *tracer) beginOp(client int, class wire.Op, batch bool) int32 {
	id, _ := t.beginClient(layerOp, client, class, batch)
	return id
}

// endOp closes a benchmark operation span.
func (t *tracer) endOp(client int, id int32, failed bool) { t.endClient(client, id, -1, failed) }

// beginCall opens a transport call span. Client calls nest in the
// owning client's current span; inter-instance calls nest in the open
// client-facing handle span for the same key (the write whose replica
// leg this is).
func (t *tracer) beginCall(l layer, addr, key string, op wire.Op, flags uint8, subs int) (int32, string) {
	if !t.active.Load() {
		return -1, ""
	}
	start := t.now()
	link := addr + "|" + key
	t.mu.Lock()
	parent := int32(-1)
	if l == layerClientCall {
		if c := t.actor(key); c >= 0 {
			parent = t.cur[c]
		}
	} else if key != "" {
		parent = last(t.openHdl[key])
	}
	id := t.add(span{start: start, parent: parent, layer: l, op: op, flags: flags, batch: subs > 0, subs: int32(subs)})
	t.openCall[link] = append(t.openCall[link], id)
	t.mu.Unlock()
	return id, link
}

// endCall closes a call span.
func (t *tracer) endCall(id int32, link string, status wire.Status, failed bool) {
	if id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	s := &t.spans[id]
	s.end, s.status, s.failed = end, status, failed
	if ids := drop(t.openCall[link], id); len(ids) == 0 {
		delete(t.openCall, link)
	} else {
		t.openCall[link] = ids
	}
	t.mu.Unlock()
}

// beginHandle opens a handler span at addr, nested in the open call
// to (addr, key).
func (t *tracer) beginHandle(addr, key string, op wire.Op, flags uint8, subs int) int32 {
	if !t.active.Load() {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	id := t.add(span{
		start: start, parent: last(t.openCall[addr+"|"+key]), layer: layerHandle,
		op: op, flags: flags, batch: subs > 0, subs: int32(subs),
	})
	if flags&wire.FlagNoReplicate == 0 {
		t.openHdl[key] = append(t.openHdl[key], id)
	}
	t.mu.Unlock()
	return id
}

func (t *tracer) endHandle(id int32, key string) {
	if id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	s := &t.spans[id]
	s.end = end
	if !s.replicaApply() {
		if ids := drop(t.openHdl[key], id); len(ids) == 0 {
			delete(t.openHdl, key)
		} else {
			t.openHdl[key] = ids
		}
	}
	t.mu.Unlock()
}

// admitted records one admission decision made inside the open
// handle span for key.
func (t *tracer) admitted(key string, start int64, ok bool) {
	if !t.active.Load() {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.add(span{start: start, end: end, parent: last(t.openHdl[key]), layer: layerAdmit, failed: !ok})
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes up to limit spans, one per line: index,
// layer, op, start and end in ns since the trace began (end 0: still
// open), and parent index.
func writeSpans(w io.Writer, spans []span, limit int) error {
	if _, err := fmt.Fprintln(w, "id\tname\top\tstart_ns\tend_ns\tparent"); err != nil {
		return err
	}
	for i := range spans {
		if i >= limit {
			break
		}
		s := &spans[i]
		if _, err := fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\t%d\n", i, layerNames[s.layer], s.op, s.start, s.end, s.parent); err != nil {
			return err
		}
	}
	return nil
}

// tracedCaller times every call through a transport.Caller.
type tracedCaller struct {
	inner transport.Caller
	tr    *tracer
	layer layer
}

func (c *tracedCaller) Call(addr string, req *wire.Request) (*wire.Response, error) {
	id, link := c.tr.beginCall(c.layer, addr, req.Key, req.Op, req.Flags, 0)
	resp, err := c.inner.Call(addr, req)
	var st wire.Status
	if err == nil {
		st = resp.Status // read before the response is handed on
	}
	c.tr.endCall(id, link, st, err != nil)
	return resp, err
}

func (c *tracedCaller) CallBatch(addr string, reqs []*wire.Request) ([]*wire.Response, error) {
	if len(reqs) == 0 {
		return c.inner.CallBatch(addr, reqs)
	}
	id, link := c.tr.beginCall(c.layer, addr, reqs[0].Key, reqs[0].Op, reqs[0].Flags, len(reqs))
	rs, err := c.inner.CallBatch(addr, reqs)
	var st wire.Status
	if err == nil && len(rs) > 0 {
		st = rs[0].Status
	}
	c.tr.endCall(id, link, st, err != nil)
	return rs, err
}

func (c *tracedCaller) Close() error { return c.inner.Close() }

// tracedHandler times every request an instance at addr handles.
func (t *tracer) tracedHandler(addr string, h transport.Handler) transport.Handler {
	return func(req *wire.Request) *wire.Response {
		key, op, flags, subs := req.Key, req.Op, req.Flags, 0
		if op == wire.OpBatch {
			key, op, flags, subs = firstSub(req.Aux)
		}
		id := t.beginHandle(addr, key, op, flags, subs)
		resp := h(req)
		t.endHandle(id, key)
		return resp
	}
}

// firstSub reads the key, op and flags of a batch envelope's first
// sub-request and the sub-request count; batch spans are linked by
// their first key. The envelope layout is the one wire.EncodeOps
// documents: a count, then length-prefixed encoded requests.
func firstSub(aux []byte) (key string, op wire.Op, flags uint8, subs int) {
	n, k := binary.Uvarint(aux)
	if k <= 0 || n == 0 {
		return "", wire.OpBatch, 0, 0
	}
	l, k2 := binary.Uvarint(aux[k:])
	if k2 <= 0 || uint64(len(aux)-k-k2) < l {
		return "", wire.OpBatch, 0, int(n)
	}
	item := aux[k+k2 : k+k2+int(l)]
	r, err := wire.DecodeRequest(item)
	if err != nil {
		return "", wire.OpBatch, 0, int(n)
	}
	return r.Key, r.Op, r.Flags, int(n)
}

// tracedAdmission times every admission decision.
type tracedAdmission struct {
	inner core.AdmissionHook
	tr    *tracer
}

func (a *tracedAdmission) Admit(key string, cost int) (func(), time.Duration, bool) {
	start := a.tr.now()
	rel, retry, ok := a.inner.Admit(key, cost)
	a.tr.admitted(key, start, ok)
	return rel, retry, ok
}

// tracedStore times every call the memcached gateway makes into its
// backing store.
type tracedStore struct {
	inner memcached.Store
	tr    *tracer
}

func (s *tracedStore) span(key string, op wire.Op) (client int, id, prev int32) {
	client = s.tr.actor(key)
	id, prev = s.tr.beginClient(layerGateway, client, op, false)
	return client, id, prev
}

func (s *tracedStore) Insert(key string, val []byte) error {
	c, id, prev := s.span(key, wire.OpInsert)
	err := s.inner.Insert(key, val)
	s.tr.endClient(c, id, prev, err != nil)
	return err
}

func (s *tracedStore) InsertIfAbsent(key string, val []byte) error {
	c, id, prev := s.span(key, wire.OpInsert)
	err := s.inner.InsertIfAbsent(key, val)
	s.tr.endClient(c, id, prev, err != nil)
	return err
}

func (s *tracedStore) Lookup(key string) ([]byte, error) {
	c, id, prev := s.span(key, wire.OpLookup)
	v, err := s.inner.Lookup(key)
	s.tr.endClient(c, id, prev, err != nil && !errors.Is(err, core.ErrNotFound))
	return v, err
}

func (s *tracedStore) Remove(key string) error {
	c, id, prev := s.span(key, wire.OpRemove)
	err := s.inner.Remove(key)
	s.tr.endClient(c, id, prev, err != nil && !errors.Is(err, core.ErrNotFound))
	return err
}

func (s *tracedStore) Cas(key string, oldVal, newVal []byte) ([]byte, error) {
	c, id, prev := s.span(key, wire.OpCas)
	v, err := s.inner.Cas(key, oldVal, newVal)
	s.tr.endClient(c, id, prev, err != nil)
	return v, err
}

// keyClient maps a benchmark key to the client that owns it. Keys are
// "k<client><13-digit index>" (15 bytes, the paper's key size),
// optionally under a tenant namespace.
func keyClient(key string) int {
	_, key = tenant.Split(key)
	if len(key) != keyLen || key[1] < '0' || key[1] > '9' {
		return -1
	}
	return int(key[1] - '0')
}
