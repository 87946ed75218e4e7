package main

import (
	"encoding/binary"
	"fmt"
)

// Values are self-describing: after a fixed tag byte, the header
// names the owning client, the key index and the version, and the rest
// is filler derived from those three, so one read can be checked byte
// for byte against the version it claims to be, and that version
// against the oracle. The tag keeps values clear of the reserved
// tenant-envelope prefix (0x1d 0x01), which a raw key index could
// otherwise produce.
const (
	valTag    = 'v'
	valHeader = 10
)

// valueSeed is the filler seed of (client, key, version).
func valueSeed(client, key int, ver uint32) uint64 {
	return uint64(client)<<56 ^ uint64(key)<<24 ^ uint64(ver) ^ 0x9e3779b97f4a7c15
}

// fillValue writes the value for (client, key, version) into dst,
// which must be at least valHeader bytes long.
func fillValue(dst []byte, client, key int, ver uint32) {
	dst[0], dst[1] = valTag, byte(client)
	binary.LittleEndian.PutUint32(dst[2:6], uint32(key))
	binary.LittleEndian.PutUint32(dst[6:10], ver)
	x := valueSeed(client, key, ver)
	var w [8]byte
	for i := valHeader; i < len(dst); i += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(w[:], x)
		copy(dst[i:], w[:])
	}
}

// decodeVersion checks that v is exactly what fillValue writes for
// (client, key) at the version v's header names, and returns that
// version. Callers check the length.
func decodeVersion(v []byte, client, key int) (uint32, error) {
	if len(v) < valHeader {
		return 0, fmt.Errorf("value of %d bytes is shorter than its header", len(v))
	}
	ver := binary.LittleEndian.Uint32(v[6:10])
	if v[0] != valTag || v[1] != byte(client) || binary.LittleEndian.Uint32(v[2:6]) != uint32(key) {
		return 0, fmt.Errorf("value header %x is not client %d key %d", v[:valHeader], client, key)
	}
	x := valueSeed(client, key, ver)
	var w [8]byte
	for i := valHeader; i < len(v); i += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(w[:], x)
		if n := min(8, len(v)-i); string(v[i:i+n]) != string(w[:n]) {
			return 0, fmt.Errorf("value bytes %d.. differ from version %d of client %d key %d", i, ver, client, key)
		}
	}
	return ver, nil
}

// splitmix is the SplitMix64 step, used wherever the benchmark needs
// cheap deterministic bytes.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// absent is the version the oracle uses for "no value".
const absent = 0

// verdict is the oracle's judgement of one read.
type verdict int

const (
	readOK verdict = iota
	// readResurrected: the read returned a value the same client had
	// removed with an acknowledged remove — the tombstone-free remove
	// anomaly, counted and reported, never filtered out.
	readResurrected
	// readWrong: any other disagreement; the run fails.
	readWrong
)

// keyState is what one key may read as. ok holds every version a read
// may return: one after an acknowledged operation, more after a
// refused or failed write, which may or may not have applied.
type keyState struct {
	ok      []uint32
	removed uint32 // newest version an acknowledged remove deleted
}

// oracle tracks the expected state of the keys one client owns. Only
// that client writes them and it keeps one operation in flight, so
// the expected state is exact.
type oracle struct {
	keys []keyState
}

func newOracle(n int) *oracle {
	o := &oracle{keys: make([]keyState, n)}
	o.reset()
	return o
}

// reset forgets every key: all are absent and never removed.
func (o *oracle) reset() {
	for i := range o.keys {
		o.keys[i] = keyState{ok: append(o.keys[i].ok[:0], absent)}
	}
}

// certainlyAbsent reports whether key is certainly absent.
func (o *oracle) certainlyAbsent(key int) bool {
	s := &o.keys[key]
	return len(s.ok) == 1 && s.ok[0] == absent
}

// acked records an acknowledged insert of ver.
func (o *oracle) acked(key int, ver uint32) {
	o.keys[key].ok = append(o.keys[key].ok[:0], ver)
}

// removed records an acknowledged remove. found says whether the
// store answered that it deleted something; a not-found answer is
// only correct when the key may be absent.
func (o *oracle) removed(key int, found bool) error {
	s := &o.keys[key]
	if !found && !contains(s.ok, absent) {
		return fmt.Errorf("remove answered not-found but the key holds version %v", s.ok)
	}
	for _, v := range s.ok {
		if v > s.removed {
			s.removed = v
		}
	}
	s.ok = append(s.ok[:0], absent)
	return nil
}

// refused records a write (ver, or absent for a remove) that failed
// or was refused: it may or may not have applied, so both the old and
// the new state are acceptable until a read settles it.
func (o *oracle) refused(key int, ver uint32) {
	s := &o.keys[key]
	if !contains(s.ok, ver) {
		s.ok = append(s.ok, ver)
	}
}

// read judges a read that returned ver (absent for not-found). An
// accepted read settles any ambiguity left by refused writes.
func (o *oracle) read(key int, ver uint32) verdict {
	s := &o.keys[key]
	if contains(s.ok, ver) {
		if len(s.ok) > 1 {
			if ver == absent {
				// A refused remove evidently applied: what it deleted
				// counts as removed.
				for _, v := range s.ok {
					s.removed = max(s.removed, v)
				}
			}
			s.ok = append(s.ok[:0], ver)
		}
		return readOK
	}
	if ver != absent && ver <= s.removed && contains(s.ok, absent) {
		return readResurrected
	}
	return readWrong
}

func (o *oracle) expected(key int) []uint32 { return o.keys[key].ok }

func contains(vs []uint32, v uint32) bool {
	for _, x := range vs {
		if x == v {
			return true
		}
	}
	return false
}
