package rstar

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/pager"
	"repro/internal/vecmath"
)

// TestRestoreFromMappedSource proves the Source seam: a tree restored over
// a read-only pager.Mapped image serves bit-identical nodes with identical
// I/O accounting, and every mutation entry point fails typed instead of
// writing through the mapping.
func TestRestoreFromMappedSource(t *testing.T) {
	store := pager.NewStore(512)
	heap, err := New(store, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	pts := make([]vecmath.Point, 200)
	for i := range pts {
		pts[i] = vecmath.Point{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	if err := heap.BulkLoad(pts, nil); err != nil {
		t.Fatal(err)
	}
	if err := heap.Finalize(); err != nil {
		t.Fatal(err)
	}
	var pages []pager.MappedPage
	err = store.ForEachPage(func(id pager.PageID, data []byte) error {
		pages = append(pages, pager.MappedPage{ID: id, Data: data})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := pager.NewMapped(store.PageSize(), pages)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := RestoreFrom(mapped, 3, heap.Root(), heap.Height(), heap.Size(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ro.Source() != pager.Source(mapped) {
		t.Fatal("Source() does not return the mapped source")
	}

	// Node-for-node identity, with identical per-read accounting.
	store.ResetStats()
	mapped.ResetStats()
	err = store.ForEachPage(func(id pager.PageID, data []byte) error {
		hn, err := heap.Reader(nil).ReadNodeInto(id, nil)
		if err != nil {
			return err
		}
		mn, err := ro.Reader(nil).ReadNodeInto(id, nil)
		if err != nil {
			return err
		}
		if !sameNode(hn, mn) {
			t.Fatalf("node %d differs between heap and mapped serving", id)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hr, mr := store.Stats().Reads, mapped.Stats().Reads; hr != mr {
		t.Fatalf("read accounting diverged: heap %d, mapped %d", hr, mr)
	}

	// Every mutation entry point must refuse.
	p := vecmath.Point{0.5, 0.5, 0.5}
	if err := ro.Insert(p, 999); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("Insert on read-only tree: %v", err)
	}
	if _, err := ro.Delete(pts[0], 0); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("Delete on read-only tree: %v", err)
	}
	if err := ro.BulkLoad(pts, nil); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("BulkLoad on read-only tree: %v", err)
	}
	if err := ro.Finalize(); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("Finalize on read-only tree: %v", err)
	}
	if err := ro.RemapRecordIDs(func(id int64) int64 { return id }); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("RemapRecordIDs on read-only tree: %v", err)
	}
}
