package pager

import (
	"sync"
	"testing"
)

func TestReadTracked(t *testing.T) {
	s := NewStore(64)
	id := s.Alloc()
	if err := s.Write(id, []byte("x")); err != nil {
		t.Fatal(err)
	}
	var tr Tracker
	for i := 0; i < 3; i++ {
		if _, err := s.ReadTracked(id, &tr); err != nil {
			t.Fatal(err)
		}
	}
	// A nil tracker is charged nothing, and the read still succeeds.
	if _, err := s.ReadTracked(id, nil); err != nil {
		t.Fatal(err)
	}
	if tr.Reads() != 3 {
		t.Fatalf("tracker reads = %d, want 3", tr.Reads())
	}
	// A failed read charges nothing either.
	if _, err := s.ReadTracked(id+1, &tr); err == nil {
		t.Fatal("read of unallocated page succeeded")
	}
	if tr.Reads() != 3 {
		t.Fatalf("failed read was charged: %d", tr.Reads())
	}
	tr.Reset()
	if tr.Reads() != 0 {
		t.Fatal("reset did not zero tracker")
	}
}

func TestNilTrackerSafe(t *testing.T) {
	var tr *Tracker
	tr.AddReads(5)
	tr.Reset()
	if tr.Reads() != 0 {
		t.Fatal("nil tracker misbehaved")
	}
}

// TestConcurrentTrackedReads is the -race check for the store's hot path:
// many goroutines reading through distinct trackers must each observe
// exactly their own accesses — the guarantee behind every concurrent
// query's Stats.IO.
func TestConcurrentTrackedReads(t *testing.T) {
	s := NewStore(64)
	id := s.Alloc()
	if err := s.Write(id, []byte("y")); err != nil {
		t.Fatal(err)
	}

	const goroutines, reads = 8, 200
	trackers := make([]Tracker, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				if _, err := s.ReadTracked(id, &trackers[g]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for g := range trackers {
		if got := trackers[g].Reads(); got != reads {
			t.Fatalf("tracker %d saw %d reads, want %d", g, got, reads)
		}
	}
}

// TestSharedTrackerConcurrentWorkers holds Tracker to its "safe for
// concurrent use" promise: several goroutines charge ONE tracker. The
// total must be exact and concurrent Reads snapshots must never exceed the
// final sum.
func TestSharedTrackerConcurrentWorkers(t *testing.T) {
	s := NewStore(64)
	id := s.Alloc()
	if err := s.Write(id, []byte("z")); err != nil {
		t.Fatal(err)
	}

	const workers, reads = 8, 500
	var shared Tracker
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				if _, err := s.ReadTracked(id, &shared); err != nil {
					t.Error(err)
					return
				}
				if snap := shared.Reads(); snap <= 0 || snap > workers*reads {
					t.Errorf("mid-flight snapshot %d out of range", snap)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := shared.Reads(); got != workers*reads {
		t.Fatalf("shared tracker saw %d reads, want exactly %d", got, workers*reads)
	}
}
