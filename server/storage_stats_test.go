package server

import (
	"encoding/json"
	"expvar"
	"net/http"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/snapshot"
)

// TestStatsStorageBlock: every dataset entry in /v1/stats carries a
// storage block that tells the truth about how the dataset is held —
// mmap with the file's size for a mapped v2 snapshot, heap with a
// non-zero footprint for an in-process build — and the expvar map sums
// the same numbers.
func TestStatsStorageBlock(t *testing.T) {
	built, err := repro.GenerateDataset("IND", 300, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ds.snap")
	if err := built.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := repro.LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	reg := NewRegistry()
	heapEng, err := repro.NewEngine(built)
	if err != nil {
		t.Fatal(err)
	}
	mmapEng, err := repro.NewEngine(mapped)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("heapds", heapEng); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("mmapds", mmapEng); err != nil {
		t.Fatal(err)
	}
	srv, err := NewMulti(reg, WithLogger(nil))
	if err != nil {
		t.Fatal(err)
	}

	code, body := get(t, srv, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d: %s", code, body)
	}
	var resp StatsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}

	hs := resp.Datasets["heapds"].Storage
	if hs.Mode != repro.StorageHeap || hs.MappedBytes != 0 || hs.HeapBytes <= 0 {
		t.Fatalf("heap dataset storage block %+v", hs)
	}
	ms := resp.Datasets["mmapds"].Storage
	if ms.Mode != repro.StorageMmap {
		t.Fatalf("mmap dataset reports mode %q", ms.Mode)
	}
	if ms.MappedBytes <= 0 {
		t.Fatalf("mmap dataset reports mapped_bytes %d", ms.MappedBytes)
	}
	if ms.SnapshotVersion != snapshot.Version2 {
		t.Fatalf("mmap dataset reports snapshot_version %d", ms.SnapshotVersion)
	}
	if ms.HeapBytes != 0 {
		t.Fatalf("fully aliased mmap dataset reports heap_bytes %d", ms.HeapBytes)
	}

	// expvar follows the most recently constructed server and sums across
	// its datasets.
	mv := expvar.Get("maxrank")
	if mv == nil {
		t.Fatal("maxrank expvar map not published")
	}
	var ev struct {
		MappedBytes  int64 `json:"mapped_bytes"`
		HeapBytes    int64 `json:"heap_bytes"`
		DatasetsMmap int64 `json:"datasets_mmap"`
	}
	if err := json.Unmarshal([]byte(mv.String()), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.MappedBytes != ms.MappedBytes {
		t.Fatalf("expvar mapped_bytes %d, stats block %d", ev.MappedBytes, ms.MappedBytes)
	}
	if ev.HeapBytes != hs.HeapBytes+ms.HeapBytes {
		t.Fatalf("expvar heap_bytes %d, stats blocks sum %d", ev.HeapBytes, hs.HeapBytes+ms.HeapBytes)
	}
	if ev.DatasetsMmap != 1 {
		t.Fatalf("expvar datasets_mmap %d, want 1", ev.DatasetsMmap)
	}
}
