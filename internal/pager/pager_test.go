package pager

import (
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
	got, err := s.ReadTracked(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("read %q", got)
	}
	st := s.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.Allocs != 1 {
		t.Fatalf("stats = %+v", st)
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

func TestCountingToggleAndReset(t *testing.T) {
	s := NewStore(0)
	id := s.Alloc()
	_ = s.Write(id, []byte{1})
	s.SetCounting(false)
	_, _ = s.ReadTracked(id, nil)
	if s.Stats().Reads != 0 {
		t.Fatal("read counted while counting disabled")
	}
	s.SetCounting(true)
	_, _ = s.ReadTracked(id, nil)
	if s.Stats().Reads != 1 {
		t.Fatal("read not counted")
	}
	s.ResetStats()
	if st := s.Stats(); st.Reads != 0 || st.Writes != 0 {
		t.Fatal("reset did not clear stats")
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
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				id := ids[(g*31+i)%len(ids)]
				if _, err := s.ReadTracked(id, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Stats().Reads != 8000 {
		t.Fatalf("reads = %d", s.Stats().Reads)
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
