package core

import (
	"time"

	"zht/internal/wire"
)

// AdmissionHook is the per-request admission gate an instance
// consults before serving client-facing KV traffic (single ops and
// batch sub-ops). It exists for policy layered ABOVE the node's own
// transport inflight bound — per-tenant quotas and weighted shares
// (internal/tenant.Admission implements it structurally) — so the
// core stays tenancy-agnostic.
//
// Admit is called with the request's key (which may carry a tenant
// namespace prefix) and payload size in bytes. ok=false sheds the
// request with wire.StatusBusy and retryAfter as the client backoff
// hint; ok=true admits it, and release (never nil then) must be
// called exactly once when the request finishes.
//
// Internal traffic — replication legs, replica reads for quorum
// fan-outs, migration — bypasses the hook: shedding a leg would turn
// an overload verdict into a durability gap.
type AdmissionHook interface {
	Admit(key string, cost int) (release func(), retryAfter time.Duration, ok bool)
}

// admit is the client-facing gate every KV request passes, a single
// op and each batch slot alike: the size screen, then the admission
// hook. Internal legs (NoReplicate forwards, replica reads) bypass
// both — shedding a replication leg would turn an overload verdict
// into a durability gap, and internal values (TTL envelopes) may
// legitimately exceed the user-facing payload bound. A non-nil
// response is the request's verdict; otherwise release, when non-nil,
// must be called once the request finishes.
func (in *Instance) admit(req *wire.Request) (*wire.Response, func()) {
	if req.Flags&(wire.FlagNoReplicate|wire.FlagReplicaRead) != 0 {
		return nil, nil
	}
	if in.tooLarge(req) {
		return statusResp(wire.StatusTooLarge), nil
	}
	if in.cfg.Admission == nil {
		return nil, nil
	}
	release, retry, ok := in.cfg.Admission.Admit(req.Key, len(req.Value))
	if !ok {
		resp := statusResp(wire.StatusBusy)
		resp.RetryAfter = uint64(retry)
		return resp, nil
	}
	return nil, release
}

// tooLarge screens client requests against the deployment-wide
// payload bounds (Config.MaxKeyLen/MaxValueLen; 0 = unbounded). Only
// ops that grow state are screened: Lookup and Remove of an oversized
// key are harmless and must stay able to read/delete pairs written
// before a limit was tightened. Append is bounded per-op — the
// accumulated value can still grow past MaxValueLen across appends,
// which is documented in DESIGN.md §13.
func (in *Instance) tooLarge(req *wire.Request) bool {
	if in.cfg.MaxKeyLen == 0 && in.cfg.MaxValueLen == 0 {
		return false
	}
	switch req.Op {
	case wire.OpInsert, wire.OpAppend, wire.OpCas:
	default:
		return false
	}
	if in.cfg.MaxKeyLen > 0 && len(req.Key) > in.cfg.MaxKeyLen {
		return true
	}
	return in.cfg.MaxValueLen > 0 && len(req.Value) > in.cfg.MaxValueLen
}
