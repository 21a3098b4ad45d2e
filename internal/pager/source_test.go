package pager

import (
	"testing"
	"time"
)

func TestMappedReadAndAccounting(t *testing.T) {
	pages := []MappedPage{
		{ID: 2, Data: []byte("alpha")},
		{ID: 5, Data: []byte("beta")},
		{ID: 9, Data: []byte("gamma")},
	}
	m, err := NewMapped(64, pages)
	if err != nil {
		t.Fatal(err)
	}
	if m.PageSize() != 64 || m.NumPages() != 3 {
		t.Fatalf("pageSize=%d numPages=%d", m.PageSize(), m.NumPages())
	}
	var tr Tracker
	for _, p := range pages {
		got, err := m.ReadTracked(p.ID, &tr)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(p.Data) {
			t.Fatalf("page %d: got %q want %q", p.ID, got, p.Data)
		}
	}
	if r := tr.Reads(); r != 3 {
		t.Fatalf("tracker reads = %d, want 3", r)
	}
	// Missing pages fail like Store does; the failed lookup is not counted.
	for _, id := range []PageID{1, 3, 10} {
		if _, err := m.ReadTracked(id, &tr); err == nil {
			t.Fatalf("read of missing page %d succeeded", id)
		}
	}
	if r := tr.Reads(); r != 3 {
		t.Fatalf("failed reads were counted: %d", r)
	}
}

func TestMappedForEachPageOrder(t *testing.T) {
	m, err := NewMapped(0, []MappedPage{{ID: 1, Data: []byte("a")}, {ID: 4, Data: []byte("b")}})
	if err != nil {
		t.Fatal(err)
	}
	if m.PageSize() != DefaultPageSize {
		t.Fatalf("default page size not applied: %d", m.PageSize())
	}
	var ids []PageID
	if err := m.ForEachPage(func(id PageID, data []byte) error {
		ids = append(ids, id)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 4 {
		t.Fatalf("visit order %v", ids)
	}
}

func TestMappedRejectsBadDirectory(t *testing.T) {
	cases := []struct {
		name  string
		pages []MappedPage
	}{
		{"zero id", []MappedPage{{ID: 0, Data: nil}}},
		{"negative id", []MappedPage{{ID: -1, Data: nil}}},
		{"duplicate id", []MappedPage{{ID: 3, Data: nil}, {ID: 3, Data: nil}}},
		{"descending ids", []MappedPage{{ID: 5, Data: nil}, {ID: 4, Data: nil}}},
		{"oversized page", []MappedPage{{ID: 1, Data: make([]byte, 65)}}},
	}
	for _, tc := range cases {
		if _, err := NewMapped(64, tc.pages); err == nil {
			t.Errorf("%s: NewMapped succeeded", tc.name)
		}
	}
}

func TestMappedLatency(t *testing.T) {
	m, err := NewMapped(64, []MappedPage{{ID: 1, Data: []byte("x")}})
	if err != nil {
		t.Fatal(err)
	}
	m.SetLatency(2 * time.Millisecond)
	start := time.Now()
	if _, err := m.ReadTracked(1, nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 2*time.Millisecond {
		t.Fatalf("read returned in %v, want >= 2ms", d)
	}
}
