package pager

import (
	"bytes"
	"slices"
	"sync"
	"testing"
)

func TestAllocWriteRead(t *testing.T) {
	s := NewStore(128)
	id := s.Alloc()
	if id == NilPage {
		t.Fatal("alloc returned nil page")
	}
	data := []byte("hello pages")
	if err := s.Write(id, data); err != nil {
		t.Fatal(err)
	}
	var tr Tracker
	got, err := s.ReadTracked(id, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("read %q", got)
	}
	if tr.Reads() != 1 {
		t.Fatalf("tracker reads = %d, want 1", tr.Reads())
	}
}

func TestWriteIsolation(t *testing.T) {
	s := NewStore(64)
	id := s.Alloc()
	buf := []byte{1, 2, 3}
	if err := s.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99 // caller mutation must not leak into the store
	got, _ := s.ReadTracked(id, nil)
	if got[0] != 1 {
		t.Fatal("store aliases caller buffer")
	}
}

// TestAdoptKeepsTheBuffer: Adopt stores the caller's buffer itself, with
// no allocation, and checks what Write checks.
func TestAdoptKeepsTheBuffer(t *testing.T) {
	s := NewStore(64)
	id := s.Alloc()
	buf := []byte{1, 2, 3}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := s.Adopt(id, buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Adopt allocates %.0f times", allocs)
	}
	if got, _ := s.ReadTracked(id, nil); &got[0] != &buf[0] {
		t.Fatal("Adopt stored a copy")
	}
	if err := s.Adopt(id, make([]byte, 65)); err == nil {
		t.Fatal("oversized adopt accepted")
	}
	if err := s.Adopt(42, buf); err == nil {
		t.Fatal("adopt of an unallocated page succeeded")
	}
}

func TestPageSizeEnforced(t *testing.T) {
	s := NewStore(8)
	id := s.Alloc()
	if err := s.Write(id, make([]byte, 9)); err == nil {
		t.Fatal("oversized write accepted")
	}
}

func TestErrors(t *testing.T) {
	s := NewStore(0)
	if _, err := s.ReadTracked(42, nil); err == nil {
		t.Fatal("read of unallocated page succeeded")
	}
	if err := s.Write(42, nil); err == nil {
		t.Fatal("write to unallocated page succeeded")
	}
}

func TestFree(t *testing.T) {
	s := NewStore(0)
	id := s.Alloc()
	s.Free(id)
	if _, err := s.ReadTracked(id, nil); err == nil {
		t.Fatal("read of freed page succeeded")
	}
	if s.NumPages() != 0 {
		t.Fatalf("pages = %d", s.NumPages())
	}
}

func TestFreeListReuse(t *testing.T) {
	s := NewStore(0)
	a, b, c := s.Alloc(), s.Alloc(), s.Alloc()
	s.Free(b)
	s.Free(c)
	if got := s.FreeLen(); got != 2 {
		t.Fatalf("free list holds %d, want 2", got)
	}
	// LIFO reuse: the most recently freed ID comes back first, and the ID
	// space does not grow.
	if got := s.Alloc(); got != c {
		t.Fatalf("alloc = %d, want freed %d", got, c)
	}
	if got := s.Alloc(); got != b {
		t.Fatalf("alloc = %d, want freed %d", got, b)
	}
	if got := s.MaxPageID(); got != c {
		t.Fatalf("max page ID %d, want %d (no growth through reuse)", got, c)
	}
	if got := s.Alloc(); got != c+1 {
		t.Fatalf("alloc with empty free list = %d, want %d", got, c+1)
	}
	_ = a
}

func TestFreeListChurnBoundsIDSpace(t *testing.T) {
	s := NewStore(0)
	ids := make([]PageID, 0, 8)
	for i := 0; i < 8; i++ {
		ids = append(ids, s.Alloc())
	}
	for cycle := 0; cycle < 1000; cycle++ {
		for _, id := range ids {
			s.Free(id)
		}
		ids = ids[:0]
		for i := 0; i < 8; i++ {
			ids = append(ids, s.Alloc())
		}
	}
	if got := s.MaxPageID(); got != 8 {
		t.Fatalf("1000 alloc/free cycles grew the ID space to %d, want 8", got)
	}
	if got := s.NumPages(); got != 8 {
		t.Fatalf("pages = %d, want 8", got)
	}
}

func TestFreeDoubleAndRestoreInterplay(t *testing.T) {
	s := NewStore(0)
	a := s.Alloc()
	s.Free(a)
	s.Free(a) // double free must not enter the list twice
	if got := s.FreeLen(); got != 1 {
		t.Fatalf("free list holds %d after double free, want 1", got)
	}
	// Restore re-occupies the freed ID out of band; Alloc must skip it.
	if err := s.Restore(a, []byte("x")); err != nil {
		t.Fatal(err)
	}
	b := s.Alloc()
	if b == a {
		t.Fatalf("alloc handed out restored page %d", a)
	}
	if _, err := s.ReadTracked(a, nil); err != nil {
		t.Fatalf("restored page unreadable: %v", err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore(0)
	ids := make([]PageID, 64)
	for i := range ids {
		ids[i] = s.Alloc()
		if err := s.Write(ids[i], []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var (
		wg sync.WaitGroup
		tr Tracker
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				id := ids[(g*31+i)%len(ids)]
				if _, err := s.ReadTracked(id, &tr); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if tr.Reads() != 8000 {
		t.Fatalf("reads = %d", tr.Reads())
	}
}

func TestDefaultPageSize(t *testing.T) {
	if NewStore(0).PageSize() != DefaultPageSize {
		t.Fatal("default page size not applied")
	}
	if NewStore(-5).PageSize() != DefaultPageSize {
		t.Fatal("negative page size not defaulted")
	}
}

func TestReclaimGaps(t *testing.T) {
	s := NewStore(0)
	// Simulate a restored page image with gaps: pages 2 and 5 were freed
	// by the source store before its image was copied.
	for _, id := range []PageID{1, 3, 4, 6} {
		if err := s.Restore(id, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	s.ReclaimGaps()
	if got := s.FreeLen(); got != 2 {
		t.Fatalf("free list holds %d, want 2 (gaps 2 and 5)", got)
	}
	// Lowest gaps come back first; only after both gaps are used does the
	// cursor advance.
	if got := s.Alloc(); got != 2 {
		t.Fatalf("alloc = %d, want gap 2", got)
	}
	if got := s.Alloc(); got != 5 {
		t.Fatalf("alloc = %d, want gap 5", got)
	}
	if got := s.Alloc(); got != 7 {
		t.Fatalf("alloc = %d, want fresh 7", got)
	}
}

// TestStoreClone: a clone matches a store rebuilt by Restore of every page
// plus ReclaimGaps — allocation cursor, free-list order and page bytes —
// and shares nothing mutable with its source.
func TestStoreClone(t *testing.T) {
	s := NewStore(64)
	for i := 0; i < 12; i++ {
		id := s.Alloc()
		if err := s.Write(id, []byte{byte(id), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Free a scatter of pages, the top one included, so the source's own
	// free list and cursor differ from what a restore rebuilds.
	for _, id := range []PageID{7, 2, 12, 9, 11} {
		s.Free(id)
	}
	reused := s.Alloc() // pops 11 off the source's LIFO list
	if err := s.Write(reused, []byte("reused")); err != nil {
		t.Fatal(err)
	}

	ref := NewStore(s.PageSize())
	if err := s.ForEachPage(func(id PageID, data []byte) error { return ref.Restore(id, data) }); err != nil {
		t.Fatal(err)
	}
	ref.ReclaimGaps()
	c := s.Clone()
	if c.MaxPageID() != ref.MaxPageID() || c.NumPages() != ref.NumPages() || c.PageSize() != ref.PageSize() {
		t.Fatalf("clone max %d pages %d size %d, restore gives %d %d %d",
			c.MaxPageID(), c.NumPages(), c.PageSize(), ref.MaxPageID(), ref.NumPages(), ref.PageSize())
	}
	if !slices.Equal(c.free, ref.free) {
		t.Fatalf("clone free list %v, restore gives %v", c.free, ref.free)
	}
	err := ref.ForEachPage(func(id PageID, want []byte) error {
		got, err := c.ReadTracked(id, nil)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d: clone holds %q, restore %q", id, got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Allocation replays identically on both rebuilt stores.
	for i := 0; i < 4; i++ {
		if got, want := c.Alloc(), ref.Alloc(); got != want {
			t.Fatalf("alloc %d: clone %d, restore %d", i, got, want)
		}
	}

	// Writes and frees on either side stay on that side.
	if err := c.Write(1, []byte("clone")); err != nil {
		t.Fatal(err)
	}
	s.Free(3)
	if got, _ := s.ReadTracked(1, nil); string(got) != "\x01\x00" {
		t.Fatalf("source page 1 = %q after a clone write", got)
	}
	if _, err := c.ReadTracked(3, nil); err != nil {
		t.Fatalf("clone lost page 3 to a source free: %v", err)
	}
	if got := s.Alloc(); got != 3 {
		t.Fatalf("source alloc = %d, want its own freed 3", got)
	}
}
