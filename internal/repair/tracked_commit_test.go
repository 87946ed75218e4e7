package repair

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"zht/internal/storage"
)

// slowCommitKV is a versioned store whose durability waits block until
// release is closed: a stand-in for a group commit that takes its
// time. PutV and Remove wait through the same gate as Commit, so a
// wrapper that still held its leaf lock across the whole mutation
// would block there too.
type slowCommitKV struct {
	storage.KV
	entered chan struct{} // one send per wait that starts
	release chan struct{}
}

func (s *slowCommitKV) Commit(t storage.Ticket) error {
	s.entered <- struct{}{}
	<-s.release
	return s.KV.Commit(t)
}

func (s *slowCommitKV) PutV(key string, val []byte, ver uint64) error {
	t, err := s.KV.PutVTicket(key, val, ver)
	if err != nil {
		return err
	}
	return s.Commit(t)
}

func (s *slowCommitKV) Remove(key string) (bool, error) {
	ok, t, err := s.KV.RemoveTicket(key)
	if err != nil || !ok {
		return ok, err
	}
	return true, s.Commit(t)
}

// TestTrackedReleasesLeafLockBeforeCommit: while one write to a leaf
// waits for its commit, another write to the same leaf applies and
// reaches its own wait, and the digest maintained across both equals
// one rebuilt from the store.
func TestTrackedReleasesLeafLockBeforeCommit(t *testing.T) {
	inner := &slowCommitKV{KV: openMem(t), entered: make(chan struct{}, 4), release: make(chan struct{})}
	tr, err := Track(inner)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	k1 := "key-0"
	k2 := ""
	for i := 1; k2 == ""; i++ {
		if k := fmt.Sprintf("key-%d", i); LeafOf(k) == LeafOf(k1) {
			k2 = k
		}
	}
	waitEntered := func(what string) {
		t.Helper()
		select {
		case <-inner.entered:
		case <-time.After(5 * time.Second):
			close(inner.release) // unblock the stuck writer before failing
			t.Fatalf("%s never reached its commit wait: the leaf lock is held across the wait", what)
		}
	}
	done := make(chan error, 2)
	go func() { done <- tr.PutV(k1, []byte("v1"), 1) }()
	waitEntered("first write")
	go func() { done <- tr.PutV(k2, []byte("v2"), 2) }()
	waitEntered("second write to the same leaf")
	close(inner.release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := tr.Remove(k1); !ok || err != nil {
		t.Fatalf("Remove = %v %v", ok, err)
	}
	<-inner.entered

	rebuilt, err := Track(inner)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Digest().Snapshot(), rebuilt.Digest().Snapshot()) {
		t.Fatal("digest maintained across ticketed mutations differs from the rebuilt one")
	}
}
