package repair

import (
	"sync"

	"zht/internal/storage"
)

// Tracked wraps a partition store and maintains its Merkle digest on
// every mutation, so a digest snapshot is always available without an
// O(n) scan. It implements storage.KV, which is what makes the digest
// hook sit on the storage seam: every write path through the instance
// — primary applies, replica applies, migration imports — updates the
// digest for free. When the wrapped store persists version stamps
// (storage.VersionedKV), Tracked passes the versioned operations
// through and folds each pair's stamp into its digest hash
// (PairHashV), so replicas holding the same bytes under different
// versions still diff as divergent; wrapping an unversioned store
// degrades to version-0 hashing, today's digests.
//
// Mutations of keys in the same leaf are serialized by a per-leaf
// lock: the read-modify (fetch the old value, apply, toggle old out
// and new in) must be atomic per pair or a racing pair of writers
// could toggle the same old value twice and corrupt the leaf forever.
// Keys in different leaves proceed in parallel, preserving the
// concurrency the sharded store underneath provides. The lock covers
// the apply and the toggles only: PutV and Remove release it before
// waiting for the write to become durable, so one key's commit wait
// never holds up the rest of its leaf.
type Tracked struct {
	inner storage.KV
	vkv   storage.VersionedKV // non-nil when inner persists versions
	d     *Digest
	locks [Leaves]sync.Mutex
}

// Track wraps inner, rebuilding the digest from the store's current
// contents (the "rebuilt on open" path: after a restart the
// incremental state is gone, so it is recomputed once).
func Track(inner storage.KV) (*Tracked, error) {
	t := &Tracked{inner: inner, d: NewDigest()}
	t.vkv, _ = inner.(storage.VersionedKV)
	var err error
	if t.vkv != nil {
		err = t.vkv.ForEachV(func(key string, val []byte, ver uint64) error {
			t.d.ToggleV(key, val, ver)
			return nil
		})
	} else {
		err = inner.ForEach(func(key string, val []byte) error {
			t.d.Toggle(key, val)
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Digest returns the maintained digest.
func (t *Tracked) Digest() *Digest { return t.d }

// Versioned reports whether the wrapped store persists version
// stamps; consumers that need LWW semantics check this before
// trusting the versioned methods with conflict resolution.
func (t *Tracked) Versioned() bool { return t.vkv != nil }

// oldPool recycles the scratch buffers mutations read the pre-image
// into: every overwrite must toggle the old pair out of the digest,
// and fetching it through Get would copy-allocate per write.
// Digest.Toggle hashes the value without retaining it, so the scratch
// is dead as soon as the toggles are done. Buffers that ballooned
// serving a large value are dropped rather than pooled.
var oldPool = sync.Pool{New: func() any { return new([]byte) }}

const maxOldScratch = 64 << 10

func putOld(sp *[]byte, old []byte) {
	if cap(old) > maxOldScratch {
		*sp = nil
	} else {
		*sp = old[:0]
	}
	oldPool.Put(sp)
}

// oldPair reads key's current value (into dst) and version: the
// pre-image every mutation must toggle out of the digest. Version is
// 0 when the wrapped store is unversioned.
func (t *Tracked) oldPair(dst []byte, key string) ([]byte, uint64, bool, error) {
	if t.vkv != nil {
		return t.vkv.GetAppendV(dst, key)
	}
	val, found, err := t.GetAppend(dst, key)
	return val, 0, found, err
}

// Put stores val under key, replacing any existing value. The stored
// pair becomes unversioned (version 0), matching the engine's plain
// Put.
func (t *Tracked) Put(key string, val []byte) error {
	return t.PutV(key, val, 0)
}

// PutV stores val under key with the given version stamp,
// unconditionally (storage.VersionedKV). On an unversioned inner
// store the stamp is dropped.
func (t *Tracked) PutV(key string, val []byte, ver uint64) error {
	tk, err := t.PutVTicket(key, val, ver)
	if err != nil {
		return err
	}
	return t.Commit(tk)
}

// PutVTicket is PutV without the durability wait
// (storage.VersionedKV): the pair is applied and the digest updated
// under the leaf lock, and the caller owes Commit(ticket). Over an
// unversioned inner store the put completes in full and the ticket is
// zero.
func (t *Tracked) PutVTicket(key string, val []byte, ver uint64) (storage.Ticket, error) {
	l := &t.locks[LeafOf(key)]
	l.Lock()
	defer l.Unlock()
	sp := oldPool.Get().(*[]byte)
	old, oldVer, had, err := t.oldPair((*sp)[:0], key)
	defer putOld(sp, old)
	if err != nil {
		return storage.Ticket{}, err
	}
	var tk storage.Ticket
	if t.vkv != nil {
		tk, err = t.vkv.PutVTicket(key, val, ver)
	} else {
		ver = 0
		err = t.inner.Put(key, val)
	}
	if err != nil {
		return storage.Ticket{}, err
	}
	if had {
		t.d.ToggleV(key, old, oldVer)
	}
	t.d.ToggleV(key, val, ver)
	return tk, nil
}

// Commit waits for a ticketed mutation to become durable
// (storage.VersionedKV).
func (t *Tracked) Commit(tk storage.Ticket) error {
	if t.vkv == nil {
		return nil
	}
	return t.vkv.Commit(tk)
}

// PutLWW stores (val, ver) only when ver is strictly newer than the
// stored version (storage.VersionedKV); it reports whether the store
// was modified. On an unversioned inner store every stored pair
// counts as version 0.
func (t *Tracked) PutLWW(key string, val []byte, ver uint64) (bool, error) {
	l := &t.locks[LeafOf(key)]
	l.Lock()
	defer l.Unlock()
	sp := oldPool.Get().(*[]byte)
	old, oldVer, had, err := t.oldPair((*sp)[:0], key)
	defer putOld(sp, old)
	if err != nil {
		return false, err
	}
	var applied bool
	if t.vkv != nil {
		applied, err = t.vkv.PutLWW(key, val, ver)
	} else {
		if had && oldVer >= ver {
			return false, nil
		}
		ver = 0
		applied, err = true, t.inner.Put(key, val)
	}
	if err != nil || !applied {
		return false, err
	}
	if had {
		t.d.ToggleV(key, old, oldVer)
	}
	t.d.ToggleV(key, val, ver)
	return true, nil
}

// RemoveLWW deletes key only when ver is strictly newer than the
// stored version (storage.VersionedKV), reporting whether the key was
// removed.
func (t *Tracked) RemoveLWW(key string, ver uint64) (bool, error) {
	l := &t.locks[LeafOf(key)]
	l.Lock()
	defer l.Unlock()
	sp := oldPool.Get().(*[]byte)
	old, oldVer, had, err := t.oldPair((*sp)[:0], key)
	defer putOld(sp, old)
	if err != nil {
		return false, err
	}
	if !had {
		return false, nil
	}
	var removed bool
	if t.vkv != nil {
		removed, err = t.vkv.RemoveLWW(key, ver)
	} else {
		if oldVer >= ver {
			return false, nil
		}
		removed, err = t.inner.Remove(key)
	}
	if err != nil || !removed {
		return false, err
	}
	t.d.ToggleV(key, old, oldVer)
	return true, nil
}

// PutIfAbsent stores val only when key is not present.
func (t *Tracked) PutIfAbsent(key string, val []byte) (bool, error) {
	l := &t.locks[LeafOf(key)]
	l.Lock()
	defer l.Unlock()
	ok, err := t.inner.PutIfAbsent(key, val)
	if err == nil && ok {
		t.d.Toggle(key, val)
	}
	return ok, err
}

// Get returns a copy of the value stored under key.
func (t *Tracked) Get(key string) ([]byte, bool, error) { return t.inner.Get(key) }

// GetV is Get plus the stored version stamp (storage.VersionedKV);
// always 0 over an unversioned inner store.
func (t *Tracked) GetV(key string) ([]byte, uint64, bool, error) {
	if t.vkv != nil {
		return t.vkv.GetV(key)
	}
	val, found, err := t.inner.Get(key)
	return val, 0, found, err
}

// GetAppend appends key's value to dst, preserving the wrapped
// store's storage.ScratchGetter upgrade: reads do not touch the
// digest, so the wrapper would otherwise only hide the copy-free
// path. Falls back to Get when the inner store lacks it.
func (t *Tracked) GetAppend(dst []byte, key string) ([]byte, bool, error) {
	if sg, ok := t.inner.(storage.ScratchGetter); ok {
		return sg.GetAppend(dst, key)
	}
	val, found, err := t.inner.Get(key)
	if err != nil || !found {
		return dst, found, err
	}
	return append(dst, val...), true, nil
}

// GetAppendV is GetAppend plus the stored version stamp
// (storage.VersionedKV).
func (t *Tracked) GetAppendV(dst []byte, key string) ([]byte, uint64, bool, error) {
	if t.vkv != nil {
		return t.vkv.GetAppendV(dst, key)
	}
	val, found, err := t.GetAppend(dst, key)
	return val, 0, found, err
}

// Remove deletes key, reporting whether it was present.
func (t *Tracked) Remove(key string) (bool, error) {
	ok, tk, err := t.RemoveTicket(key)
	if err != nil || !ok {
		return false, err
	}
	return true, t.Commit(tk)
}

// RemoveTicket is Remove without the durability wait
// (storage.VersionedKV); the caller owes Commit(ticket) when it
// reports true. Over an unversioned inner store the removal completes
// in full and the ticket is zero.
func (t *Tracked) RemoveTicket(key string) (bool, storage.Ticket, error) {
	l := &t.locks[LeafOf(key)]
	l.Lock()
	defer l.Unlock()
	sp := oldPool.Get().(*[]byte)
	old, oldVer, had, err := t.oldPair((*sp)[:0], key)
	defer putOld(sp, old)
	if err != nil {
		return false, storage.Ticket{}, err
	}
	var ok bool
	var tk storage.Ticket
	if t.vkv != nil {
		ok, tk, err = t.vkv.RemoveTicket(key)
	} else {
		ok, err = t.inner.Remove(key)
	}
	if err != nil || !ok {
		return false, storage.Ticket{}, err
	}
	if had {
		t.d.ToggleV(key, old, oldVer)
	}
	return true, tk, nil
}

// Append concatenates val to the value under key, creating the key
// when absent. The pair keeps its stored version (appending extends
// a value, it does not supersede the write that stamped it).
func (t *Tracked) Append(key string, val []byte) error {
	l := &t.locks[LeafOf(key)]
	l.Lock()
	defer l.Unlock()
	sp := oldPool.Get().(*[]byte)
	old, oldVer, had, err := t.oldPair((*sp)[:0], key)
	if err != nil {
		putOld(sp, old)
		return err
	}
	if err := t.inner.Append(key, val); err != nil {
		putOld(sp, old)
		return err
	}
	if had {
		t.d.ToggleV(key, old, oldVer)
	} else {
		oldVer = 0
	}
	// The new pair's hash needs the concatenated value contiguously;
	// build it in the scratch (which already holds old) and recycle.
	next := append(old, val...)
	t.d.ToggleV(key, next, oldVer)
	putOld(sp, next)
	return nil
}

// Cas atomically replaces the value under key when it equals oldVal
// (nil oldVal = "expect absent"). The stored version is preserved
// across the swap (matching the engine), so the digest toggles use
// it for both the old and the new pair.
func (t *Tracked) Cas(key string, oldVal, newVal []byte) (bool, []byte, error) {
	l := &t.locks[LeafOf(key)]
	l.Lock()
	defer l.Unlock()
	var oldVer uint64
	if t.vkv != nil {
		_, v, _, err := t.vkv.GetV(key)
		if err != nil {
			return false, nil, err
		}
		oldVer = v
	}
	swapped, cur, err := t.inner.Cas(key, oldVal, newVal)
	if err == nil && swapped {
		if oldVal != nil {
			t.d.ToggleV(key, oldVal, oldVer)
		}
		t.d.ToggleV(key, newVal, oldVer)
	}
	return swapped, cur, err
}

// Len reports the number of keys stored.
func (t *Tracked) Len() int { return t.inner.Len() }

// ForEach calls fn for every pair; fn must not mutate the store.
func (t *Tracked) ForEach(fn func(key string, val []byte) error) error {
	return t.inner.ForEach(fn)
}

// ForEachV calls fn for every pair with its version
// (storage.VersionedKV); versions are 0 over an unversioned inner
// store.
func (t *Tracked) ForEachV(fn func(key string, val []byte, ver uint64) error) error {
	if t.vkv != nil {
		return t.vkv.ForEachV(fn)
	}
	return t.inner.ForEach(func(key string, val []byte) error {
		return fn(key, val, 0)
	})
}

// Sync flushes buffered state and fsyncs backing storage.
func (t *Tracked) Sync() error { return t.inner.Sync() }

// Stats returns a snapshot of store statistics.
func (t *Tracked) Stats() storage.Stats { return t.inner.Stats() }

// Close flushes durable state and closes the store.
func (t *Tracked) Close() error { return t.inner.Close() }
