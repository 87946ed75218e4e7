package novoht

// Tests for the deferred-commit split (PutVTicket/RemoveTicket +
// Commit): a ticketed mutation is visible at once, durable only after
// its Commit, and its Commit must return even when a compaction
// rewrote the log in between.

import (
	"path/filepath"
	"testing"
	"time"

	"zht/internal/storage"
)

// commitWithin runs s.Commit(t) and fails the test if it has not
// returned after d, instead of hanging the suite.
func commitWithin(t *testing.T, s *Store, tk storage.Ticket, d time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- s.Commit(tk) }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("Commit(%+v) still waiting after %v (log is %d bytes)", tk, d, s.wal.logicalSize())
		return nil
	}
}

// TestCommitAfterCompactionReturns is the regression test for a waiter
// stranded by a compaction landing between a mutation's apply and its
// durability wait. The wait used to read the WAL epoch when it began,
// so it compared an offset in the pre-compaction log against the
// compacted (smaller) log's watermarks and never returned; the ticket
// now carries the epoch of the append.
func TestCommitAfterCompactionReturns(t *testing.T) {
	for _, mode := range []storage.Durability{storage.DurabilityGroup, storage.DurabilitySync} {
		t.Run(mode.String(), func(t *testing.T) {
			s, err := Open(Options{Path: filepath.Join(t.TempDir(), "c.log"), Durability: mode, CompactEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// Overwrites leave dead bytes, so the compacted log ends
			// well before the offsets the tickets below name.
			for i := 0; i < 50; i++ {
				if err := s.PutV("hot", make([]byte, 1024), uint64(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			put, err := s.PutVTicket("hot", make([]byte, 1024), 100)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put("gone", []byte("x")); err != nil {
				t.Fatal(err)
			}
			removed, rm, err := s.RemoveTicket("gone")
			if err != nil || !removed {
				t.Fatalf("RemoveTicket = %v %v", removed, err)
			}
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			if size := s.wal.logicalSize(); size >= put.End {
				t.Fatalf("compacted log (%d bytes) does not end before the ticket (%d): the test lost its point", size, put.End)
			}
			for _, tk := range []storage.Ticket{put, rm} {
				if err := commitWithin(t, s, tk, 5*time.Second); err != nil {
					t.Fatalf("Commit after compaction: %v", err)
				}
			}
		})
	}
}

// TestTicketedMutations pins the split's contract: the mutation is
// visible before Commit, Commit makes it durable (it survives a
// reopen), a remove of an absent key submits nothing, and the zero
// ticket returns at once.
func TestTicketedMutations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.log")
	s, err := Open(Options{Path: path, Durability: storage.DurabilityGroup})
	if err != nil {
		t.Fatal(err)
	}
	put, err := s.PutVTicket("k", []byte("v1"), 7)
	if err != nil {
		t.Fatal(err)
	}
	if v, ver, ok, _ := s.GetV("k"); !ok || string(v) != "v1" || ver != 7 {
		t.Fatalf("before Commit: GetV = %q %d %v, want the applied pair", v, ver, ok)
	}
	if err := commitWithin(t, s, put, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if ok, tk, err := s.RemoveTicket("absent"); ok || err != nil || tk != (storage.Ticket{}) {
		t.Fatalf("RemoveTicket(absent) = %v %+v %v, want false, zero ticket", ok, tk, err)
	}
	if err := commitWithin(t, s, storage.Ticket{}, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Options{Path: path, Durability: storage.DurabilityGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if v, ver, ok, _ := r.GetV("k"); !ok || string(v) != "v1" || ver != 7 {
		t.Fatalf("after reopen: GetV = %q %d %v", v, ver, ok)
	}
}

// TestCommitCoversEarlierRecords checks the property a batch relies
// on to wait once: committing the last ticket makes every record
// submitted before it durable, so one fsync batch acknowledges them
// all.
func TestCommitCoversEarlierRecords(t *testing.T) {
	s, err := Open(Options{Path: filepath.Join(t.TempDir(), "b.log"), Durability: storage.DurabilityGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var last storage.Ticket
	for i := 0; i < 64; i++ {
		if last, err = s.PutVTicket(string(rune('a'+i%26))+string(rune('0'+i/26)), []byte("v"), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := commitWithin(t, s, last, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	s.wal.mu.Lock()
	synced := s.wal.synced
	s.wal.mu.Unlock()
	if synced < last.End {
		t.Fatalf("synced watermark %d short of the last ticket's end %d", synced, last.End)
	}
}
