package novoht

import (
	"path/filepath"
	"testing"

	"zht/internal/storage"
)

// The versioned half of the storage.KV contract on the flagship
// engine: stamps persist with their values, last-writer-wins
// mutations never let an older version replace a newer one, and crash
// replay + compaction both keep the newest stamp.

func TestVersionedPutGet(t *testing.T) {
	s := openTemp(t, Options{})
	var _ storage.KV = s

	if err := s.PutV("k", []byte("v1"), 10); err != nil {
		t.Fatal(err)
	}
	v, ver, ok, err := s.GetV("k")
	if err != nil || !ok || string(v) != "v1" || ver != 10 {
		t.Fatalf("GetV = %q %d %v %v", v, ver, ok, err)
	}
	// GetAppendV sees the same state through the scratch path.
	buf, ver, ok, err := s.GetAppendV(nil, "k")
	if err != nil || !ok || string(buf) != "v1" || ver != 10 {
		t.Fatalf("GetAppendV = %q %d %v %v", buf, ver, ok, err)
	}
	// Unversioned reads still work and ignore the stamp.
	if v, ok, _ := s.Get("k"); !ok || string(v) != "v1" {
		t.Fatalf("Get = %q %v", v, ok)
	}
	// Plain Put resets the stamp to 0 (an unversioned write).
	if err := s.Put("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if _, ver, _, _ := s.GetV("k"); ver != 0 {
		t.Fatalf("ver after plain Put = %d, want 0", ver)
	}
}

func TestPutLWW(t *testing.T) {
	s := openTemp(t, Options{})
	// An absent key accepts any write, even version 0.
	if ok, err := s.PutLWW("k", []byte("a"), 0); err != nil || !ok {
		t.Fatalf("PutLWW absent = %v %v", ok, err)
	}
	if ok, err := s.PutLWW("k", []byte("b"), 5); err != nil || !ok {
		t.Fatalf("PutLWW newer = %v %v", ok, err)
	}
	// Equal and older versions are rejected without touching the store.
	for _, ver := range []uint64{5, 3} {
		if ok, _ := s.PutLWW("k", []byte("stale"), ver); ok {
			t.Fatalf("PutLWW(%d) accepted a non-newer write", ver)
		}
	}
	if v, ver, _, _ := s.GetV("k"); string(v) != "b" || ver != 5 {
		t.Fatalf("state after stale writes = %q %d", v, ver)
	}
}

func TestRemoveLWW(t *testing.T) {
	s := openTemp(t, Options{})
	if removed, err := s.RemoveLWW("missing", 9); err != nil || removed {
		t.Fatalf("RemoveLWW missing = %v %v", removed, err)
	}
	if err := s.PutV("k", []byte("v"), 5); err != nil {
		t.Fatal(err)
	}
	if removed, _ := s.RemoveLWW("k", 5); removed {
		t.Fatal("RemoveLWW with equal version removed the key")
	}
	if removed, _ := s.RemoveLWW("k", 4); removed {
		t.Fatal("RemoveLWW with older version removed the key")
	}
	if removed, err := s.RemoveLWW("k", 6); err != nil || !removed {
		t.Fatalf("RemoveLWW newer = %v %v", removed, err)
	}
	if _, _, ok, _ := s.GetV("k"); ok {
		t.Fatal("key present after winning RemoveLWW")
	}
}

func TestVersionSurvivesReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.log")
	s := openTemp(t, Options{Path: path})
	if err := s.PutV("a", []byte("va"), 7); err != nil {
		t.Fatal(err)
	}
	if err := s.PutV("b", []byte("vb"), 1<<50); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("c", []byte("vc")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTemp(t, Options{Path: path})
	for _, tc := range []struct {
		key string
		val string
		ver uint64
	}{{"a", "va", 7}, {"b", "vb", 1 << 50}, {"c", "vc", 0}} {
		v, ver, ok, err := r.GetV(tc.key)
		if err != nil || !ok || string(v) != tc.val || ver != tc.ver {
			t.Fatalf("%s after replay = %q %d %v %v, want %q %d",
				tc.key, v, ver, ok, err, tc.val, tc.ver)
		}
	}
}

func TestVersionSurvivesCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.log")
	s := openTemp(t, Options{Path: path})
	for i := 0; i < 50; i++ {
		if err := s.PutV("k", []byte("x"), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, ver, ok, _ := s.GetV("k"); !ok || ver != 50 {
		t.Fatalf("ver after compaction = %d, want 50", ver)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTemp(t, Options{Path: path})
	if _, ver, ok, _ := r.GetV("k"); !ok || ver != 50 {
		t.Fatalf("ver after compaction+replay = %d, want 50", ver)
	}
}

func TestVersionedEviction(t *testing.T) {
	s := openTemp(t, Options{MaxMemValues: 2})
	for i, k := range []string{"a", "b", "c", "d"} {
		if err := s.PutV(k, []byte("value-"+k), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	// Some values are now evicted; reads must fault them back with
	// their stamps intact.
	for i, k := range []string{"a", "b", "c", "d"} {
		v, ver, ok, err := s.GetV(k)
		if err != nil || !ok || string(v) != "value-"+k || ver != uint64(i+1) {
			t.Fatalf("%s after eviction = %q %d %v %v", k, v, ver, ok, err)
		}
	}
}
