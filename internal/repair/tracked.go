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
// digest for free. Tracked folds each pair's version stamp into its
// digest hash (PairHashV), so replicas holding the same bytes under
// different versions still diff as divergent.
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
	d     *Digest
	locks [Leaves]sync.Mutex
}

// Track wraps inner, rebuilding the digest from the store's current
// contents (the "rebuilt on open" path: after a restart the
// incremental state is gone, so it is recomputed once).
func Track(inner storage.KV) (*Tracked, error) {
	t := &Tracked{inner: inner, d: NewDigest()}
	err := inner.ForEachV(func(key string, val []byte, ver uint64) error {
		t.d.ToggleV(key, val, ver)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Digest returns the maintained digest.
func (t *Tracked) Digest() *Digest { return t.d }

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

// Put stores val under key, replacing any existing value. The stored
// pair becomes unversioned (version 0), matching the engine's plain
// Put.
func (t *Tracked) Put(key string, val []byte) error {
	return t.PutV(key, val, 0)
}

// PutV stores val under key with the given version stamp,
// unconditionally.
func (t *Tracked) PutV(key string, val []byte, ver uint64) error {
	tk, err := t.PutVTicket(key, val, ver)
	if err != nil {
		return err
	}
	return t.Commit(tk)
}

// PutVTicket is PutV without the durability wait: the pair is applied
// and the digest updated under the leaf lock, and the caller owes
// Commit(ticket).
func (t *Tracked) PutVTicket(key string, val []byte, ver uint64) (storage.Ticket, error) {
	l := &t.locks[LeafOf(key)]
	l.Lock()
	defer l.Unlock()
	sp := oldPool.Get().(*[]byte)
	old, oldVer, had, err := t.inner.GetAppendV((*sp)[:0], key)
	defer putOld(sp, old)
	if err != nil {
		return storage.Ticket{}, err
	}
	tk, err := t.inner.PutVTicket(key, val, ver)
	if err != nil {
		return storage.Ticket{}, err
	}
	if had {
		t.d.ToggleV(key, old, oldVer)
	}
	t.d.ToggleV(key, val, ver)
	return tk, nil
}

// Commit waits for a ticketed mutation to become durable.
func (t *Tracked) Commit(tk storage.Ticket) error { return t.inner.Commit(tk) }

// PutLWW stores (val, ver) only when ver is strictly newer than the
// stored version; it reports whether the store was modified.
func (t *Tracked) PutLWW(key string, val []byte, ver uint64) (bool, error) {
	l := &t.locks[LeafOf(key)]
	l.Lock()
	defer l.Unlock()
	sp := oldPool.Get().(*[]byte)
	old, oldVer, had, err := t.inner.GetAppendV((*sp)[:0], key)
	defer putOld(sp, old)
	if err != nil {
		return false, err
	}
	applied, err := t.inner.PutLWW(key, val, ver)
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
// stored version, reporting whether the key was removed.
func (t *Tracked) RemoveLWW(key string, ver uint64) (bool, error) {
	l := &t.locks[LeafOf(key)]
	l.Lock()
	defer l.Unlock()
	sp := oldPool.Get().(*[]byte)
	old, oldVer, had, err := t.inner.GetAppendV((*sp)[:0], key)
	defer putOld(sp, old)
	if err != nil {
		return false, err
	}
	if !had {
		return false, nil
	}
	removed, err := t.inner.RemoveLWW(key, ver)
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

// GetV is Get plus the stored version stamp.
func (t *Tracked) GetV(key string) ([]byte, uint64, bool, error) { return t.inner.GetV(key) }

// GetAppendV appends key's value to dst and returns it with the stored
// version stamp; reads do not touch the digest, so the wrapped
// store's copy-free path passes straight through.
func (t *Tracked) GetAppendV(dst []byte, key string) ([]byte, uint64, bool, error) {
	return t.inner.GetAppendV(dst, key)
}

// Remove deletes key, reporting whether it was present.
func (t *Tracked) Remove(key string) (bool, error) {
	ok, tk, err := t.RemoveTicket(key)
	if err != nil || !ok {
		return false, err
	}
	return true, t.Commit(tk)
}

// RemoveTicket is Remove without the durability wait; the caller owes
// Commit(ticket) when it reports true.
func (t *Tracked) RemoveTicket(key string) (bool, storage.Ticket, error) {
	l := &t.locks[LeafOf(key)]
	l.Lock()
	defer l.Unlock()
	sp := oldPool.Get().(*[]byte)
	old, oldVer, had, err := t.inner.GetAppendV((*sp)[:0], key)
	defer putOld(sp, old)
	if err != nil {
		return false, storage.Ticket{}, err
	}
	ok, tk, err := t.inner.RemoveTicket(key)
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
	old, oldVer, had, err := t.inner.GetAppendV((*sp)[:0], key)
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
	_, oldVer, _, err := t.inner.GetV(key)
	if err != nil {
		return false, nil, err
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

// ForEachV calls fn for every pair with its version; fn must not
// mutate the store.
func (t *Tracked) ForEachV(fn func(key string, val []byte, ver uint64) error) error {
	return t.inner.ForEachV(fn)
}

// Sync flushes buffered state and fsyncs backing storage.
func (t *Tracked) Sync() error { return t.inner.Sync() }

// Stats returns a snapshot of store statistics.
func (t *Tracked) Stats() storage.Stats { return t.inner.Stats() }

// Close flushes durable state and closes the store.
func (t *Tracked) Close() error { return t.inner.Close() }
