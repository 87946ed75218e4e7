package core

import (
	"math/bits"
	"slices"
	"sync"

	"zht/internal/ring"
	"zht/internal/wire"
)

// Server side of the KV partition path. One OpBatch envelope carries N
// sub-operations, and the instance amortizes the per-request cost —
// migration gate, ownership check, partition locks, replication round
// trips — across every sub-op that lands on the same partition. A
// single request is the same path with a group of one (handleKV), so
// the two cannot disagree. This is the apply-loop half of the pipeline
// the paper's connection-caching ablation (§III.F) motivates at the
// transport level: once messages are cheap to carry, the next win is
// making each message carry more work.

// tagPool and groupPool recycle the grouping scratch handleBatch uses
// per envelope: composite (partition<<32 | index) tags, and the index
// slice handed to applyBatchPartition (which only iterates it — the
// slice never outlives the call).
var (
	tagPool   = sync.Pool{New: func() any { return new([]int64) }}
	groupPool = sync.Pool{New: func() any { return new([]int) }}
)

// handleBatch serves an OpBatch envelope: decode the sub-requests,
// group them by partition, apply each partition's group under a single
// lock acquisition, and pack the sub-responses (input order) into the
// envelope response.
func (in *Instance) handleBatch(req *wire.Request) *wire.Response {
	subs, err := wire.DecodeOps(req.Aux)
	if err != nil {
		return &wire.Response{Status: wire.StatusError, Err: "core: bad batch: " + err.Error()}
	}
	resps := make([]*wire.Response, len(subs))

	// Group sub-op indices by partition, preserving input order within
	// each group (same key → same partition → same group, so per-key
	// ordering matches sequential execution). Each KV sub-op gets a
	// composite (partition, index) tag; sorting the tags clusters each
	// partition's ops contiguously, and the index in the low bits keeps
	// the order within a partition stable. Tag and group scratch come
	// from pools so grouping allocates nothing — a map of per-partition
	// slices cost nearly an allocation per sub-op. Partitions are
	// visited in ascending order (groups hold disjoint locks and
	// release them before the next group, so visiting order is
	// correctness-neutral); non-partition ops dispatch immediately so
	// their position relative to same-batch KV ops is irrelevant.
	tp := tagPool.Get().(*[]int64)
	tags := (*tp)[:0]
	// Admission releases collected for admitted KV sub-ops; every one
	// is called when the envelope finishes.
	var releases []func()
	defer func() {
		for _, rel := range releases {
			rel()
		}
	}()
	for i, s := range subs {
		var p int
		switch s.Op {
		case wire.OpInsert, wire.OpLookup, wire.OpRemove, wire.OpAppend, wire.OpCas:
			// Each KV sub-op passes the same gate as a single request: a
			// shed or oversized slot gets its verdict here and never
			// joins a partition group, so one over-quota tenant's slots
			// cannot ride a well-behaved tenant's batch.
			r, release := in.admit(s)
			if r != nil {
				resps[i] = r
				continue
			}
			if release != nil {
				releases = append(releases, release)
			}
			p = in.partitionOf(s.Key)
			if isReplicaRead(s) {
				resps[i] = in.replicaRead(p, s)
				continue
			}
		case wire.OpReplicate:
			// Batched replication legs apply in input order — the order
			// the primary applied them — via the ordinary replicate
			// handler; grouping would buy nothing (no locks, no fan-out).
			resps[i] = in.handleReplicate(s)
			continue
		default:
			resps[i] = in.Handle(s)
			continue
		}
		tags = append(tags, int64(p)<<32|int64(i))
	}
	slices.Sort(tags)
	gp := groupPool.Get().(*[]int)
	idxs := (*gp)[:0]
	for k := 0; k < len(tags); {
		p := int(tags[k] >> 32)
		idxs = idxs[:0]
		for ; k < len(tags) && int(tags[k]>>32) == p; k++ {
			idxs = append(idxs, int(tags[k]&0xffffffff))
		}
		in.applyBatchPartition(p, subs, idxs, resps)
	}
	*gp = idxs[:0]
	groupPool.Put(gp)
	*tp = tags[:0]
	tagPool.Put(tp)
	// Sub-responses carry the epoch piggyback too: batch transports
	// unpack the envelope, so the envelope's own stamp is not visible
	// to the batch client.
	epoch := in.Epoch()
	for _, r := range resps {
		if r != nil && r.Epoch == 0 {
			r.Epoch = epoch
		}
	}
	env := wire.NewBatchResponse(resps)
	// The envelope now carries everything; sub-requests and
	// sub-responses go back to their pools (applyBatchPartition fans
	// routing verdicts out as per-slot copies, so each slot is
	// released exactly once).
	wire.ReleaseOps(subs)
	wire.ReleaseResponses(resps)
	return env
}

// applyBatchPartition is the one partition entry for KV ops: a single
// request arrives as a group of one (handleKV), a batch as one group
// per partition (handleBatch). It pays the partition's admission
// sequence once for the whole group — migration gate and op lock,
// post-gate ownership check with failover election, read-repair
// scheduling, store resolution, mutation stripes — then applies the
// group (applyGroup). Routing verdicts (WrongOwner, Migrating, errors)
// are fanned out to every sub-op in the group: ops for one partition
// route all-or-nothing, so the client re-routes them together.
func (in *Instance) applyBatchPartition(p int, subs []*wire.Request, idxs []int, resps []*wire.Response) {
	// fan writes a distinct pooled copy of r to every slot in the
	// group: handleBatch releases each slot independently, so slots
	// must never share one *Response. The copies may share r's Table
	// backing — releasing a Response never frees Table.
	fan := func(r *wire.Response) {
		for _, i := range idxs {
			resps[i] = r.ShallowCopy()
		}
	}

	// Migration gate: if this partition is being given away, queue
	// until the move resolves (paper queues requests during migration
	// and answers with a redirect). The op lock's read side is held
	// across gate re-check and application so an export cannot slip
	// between them and lose an acknowledged write.
	lock := in.opLock(p)
	for {
		if resp := in.migrationGate(p); resp != nil {
			fan(resp)
			return
		}
		lock.RLock()
		if in.isMigrating(p) {
			lock.RUnlock()
			continue // a migration began while we acquired the lock
		}
		break
	}
	defer lock.RUnlock()

	// Ownership must be evaluated on a table snapshot taken AFTER the
	// gate: a request racing a just-completed migration would
	// otherwise pass the gate, then consult a pre-migration table and
	// apply a write to a partition that has already moved away.
	in.mu.RLock()
	table := in.table
	ownerIdx := table.Owner[p]
	owner := table.Instances[ownerIdx]
	ownerFailed := table.Status[ownerIdx] != ring.Alive
	in.mu.RUnlock()
	if owner.ID != in.self.ID {
		// Failover service: a replica answers for a failed primary
		// (§III.H — queries for data on the failed node are answered
		// by the replicas).
		if !(ownerFailed && in.firstAliveReplica(table, p) == in.self.ID) {
			fan(&wire.Response{Status: wire.StatusWrongOwner, Table: ring.EncodeTable(table)})
			return
		}
		// Read-repair: a failover read means this replica is the
		// partition's acting authority; schedule a digest compare
		// against the other replicas so stale ranges heal without
		// waiting for the next anti-entropy tick.
		for _, i := range idxs {
			if subs[i].Op == wire.OpLookup {
				in.scheduleReadRepair(table, p)
				break
			}
		}
	}

	s, err := in.store(p)
	if err != nil {
		fan(&wire.Response{Status: wire.StatusError, Err: err.Error()})
		return
	}

	// Hold the mutation stripe of every key the group mutates across
	// apply, replication and commit: same key → same stripe, so
	// per-key replica order still matches apply order, while groups
	// touching disjoint keys overlap — feeding the store's
	// group-commit WAL whole batches. Lookups take no stripe.
	var stripes uint64
	for _, i := range idxs {
		if in.mutates(subs[i]) {
			stripes |= 1 << (in.hashf(subs[i].Key) % uint64(len(in.mutLocks)))
		}
	}
	in.lockStripes(stripes)
	defer in.unlockStripes(stripes)
	in.applyGroup(table, p, s, subs, idxs, resps)
}

// lockStripes locks the mutation stripes whose bits are set in mask,
// in ascending stripe order: every holder of more than one stripe
// acquires in the same order, so concurrent groups cannot deadlock.
func (in *Instance) lockStripes(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		in.mutLocks[bits.TrailingZeros64(m)].Lock()
	}
}

// unlockStripes releases the stripes lockStripes(mask) took.
func (in *Instance) unlockStripes(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		in.mutLocks[bits.TrailingZeros64(m)].Unlock()
	}
}
