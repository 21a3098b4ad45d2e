package repro_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro"
	"repro/internal/snapshot"
)

// writeV2File persists ds to a v2 snapshot file under a test temp dir and
// returns the path.
func writeV2File(t testing.TB, ds *repro.Dataset, f32 bool) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ds.snap")
	if err := ds.WriteSnapshotFileVersion(path, snapshot.Version2, f32); err != nil {
		t.Fatalf("WriteSnapshotFileVersion: %v", err)
	}
	return path
}

// TestMmapBitIdentityBattery is the tentpole acceptance test: a dataset
// served zero-copy from a memory-mapped v2 snapshot must produce
// bit-identical results — regions, ranks, witnesses, OutrankIDs and
// Stats.IO — to (a) the originally built dataset and (b) a heap decode of
// the same file, across every algorithm, distribution and τ. Run under
// -race this also proves the mapped read path is safe for the engine's
// concurrent query execution.
func TestMmapBitIdentityBattery(t *testing.T) {
	cases := []struct {
		dim  int
		algs []repro.Algorithm
	}{
		// d = 2 exercises FCA, BA and AA's sorted-list specialisation
		// (the paper's AA2D); d = 3 exercises general BA and AA.
		{2, []repro.Algorithm{repro.FCA, repro.BA, repro.AA}},
		{3, []repro.Algorithm{repro.BA, repro.AA}},
	}
	for _, dist := range []string{"IND", "COR", "ANTI"} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/d%d", dist, tc.dim), func(t *testing.T) {
				built, err := repro.GenerateDataset(dist, 500, tc.dim, 11)
				if err != nil {
					t.Fatal(err)
				}
				path := writeV2File(t, built, false)
				mapped, err := repro.LoadSnapshotFile(path)
				if err != nil {
					t.Fatal(err)
				}
				defer mapped.Close()
				heap, err := repro.LoadSnapshotFile(path, repro.WithMmap(false))
				if err != nil {
					t.Fatal(err)
				}
				if got := mapped.Storage().Mode; got != repro.StorageMmap {
					t.Fatalf("mapped load reports storage mode %q", got)
				}
				if got := heap.Storage().Mode; got != repro.StorageHeap {
					t.Fatalf("heap load reports storage mode %q", got)
				}
				if built.Fingerprint() != mapped.Fingerprint() || built.Fingerprint() != heap.Fingerprint() {
					t.Fatal("fingerprints diverged across load paths")
				}
				engBuilt, err := repro.NewEngine(built)
				if err != nil {
					t.Fatal(err)
				}
				engMapped, err := repro.NewEngine(mapped)
				if err != nil {
					t.Fatal(err)
				}
				engHeap, err := repro.NewEngine(heap)
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				for _, alg := range tc.algs {
					for _, tau := range []int{0, 2} {
						for _, focal := range []int{3, 17, 255} {
							a, err := engBuilt.Query(ctx, focal,
								repro.WithAlgorithm(alg), repro.WithTau(tau), repro.WithOutrankIDs(true))
							if err != nil {
								t.Fatalf("%v tau=%d focal=%d (built): %v", alg, tau, focal, err)
							}
							m, err := engMapped.Query(ctx, focal,
								repro.WithAlgorithm(alg), repro.WithTau(tau), repro.WithOutrankIDs(true))
							if err != nil {
								t.Fatalf("%v tau=%d focal=%d (mapped): %v", alg, tau, focal, err)
							}
							h, err := engHeap.Query(ctx, focal,
								repro.WithAlgorithm(alg), repro.WithTau(tau), repro.WithOutrankIDs(true))
							if err != nil {
								t.Fatalf("%v tau=%d focal=%d (heap): %v", alg, tau, focal, err)
							}
							if !reflect.DeepEqual(answerOf(a), answerOf(m)) {
								t.Fatalf("%v tau=%d focal=%d: mapped result differs from built", alg, tau, focal)
							}
							if !reflect.DeepEqual(answerOf(m), answerOf(h)) {
								t.Fatalf("%v tau=%d focal=%d: mapped result differs from heap decode", alg, tau, focal)
							}
							if a.Stats.IO != m.Stats.IO {
								t.Fatalf("%v tau=%d focal=%d: IO built %d vs mapped %d",
									alg, tau, focal, a.Stats.IO, m.Stats.IO)
							}
							if err := repro.Validate(mapped, focal, m); err != nil {
								t.Fatalf("mapped result fails validation: %v", err)
							}
						}
					}
				}
			})
		}
	}
}

// TestMmapStorageStats: the observability block must tell the truth about
// both modes — zero heap bytes while the points alias the mapping, a
// non-trivial mapped size, and the provenance fields round-tripped.
func TestMmapStorageStats(t *testing.T) {
	built := genDS(t, "IND", 300, 3)
	path := writeV2File(t, built, false)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	mapped, err := repro.LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	st := mapped.Storage()
	if st.Mode != repro.StorageMmap {
		t.Fatalf("mode %q, want %q", st.Mode, repro.StorageMmap)
	}
	if st.MappedBytes != fi.Size() {
		t.Fatalf("mapped_bytes %d, want file size %d", st.MappedBytes, fi.Size())
	}
	if st.HeapBytes != 0 {
		t.Fatalf("heap_bytes %d for a fully aliased mapping, want 0", st.HeapBytes)
	}
	if st.SnapshotVersion != snapshot.Version2 {
		t.Fatalf("snapshot_version %d, want %d", st.SnapshotVersion, snapshot.Version2)
	}

	heap, err := repro.LoadSnapshotFile(path, repro.WithMmap(false))
	if err != nil {
		t.Fatal(err)
	}
	hst := heap.Storage()
	if hst.Mode != repro.StorageHeap {
		t.Fatalf("heap mode %q", hst.Mode)
	}
	if hst.MappedBytes != 0 {
		t.Fatalf("heap load reports mapped_bytes %d", hst.MappedBytes)
	}
	if want := int64(built.Len()*built.Dim()) * 8; hst.HeapBytes < want {
		t.Fatalf("heap_bytes %d < point bytes %d", hst.HeapBytes, want)
	}

	// Built-in-process datasets: heap mode, no snapshot provenance.
	bst := built.Storage()
	if bst.Mode != repro.StorageHeap || bst.SnapshotVersion != 0 || bst.MappedBytes != 0 {
		t.Fatalf("built dataset storage %+v", bst)
	}
}

// TestMutateWhileMmapServing proves the copy-on-write promotion: applying
// mutations to an mmap-served dataset must never write through the mapping
// — the snapshot file stays byte-identical on disk — and the successor
// must be a self-contained heap dataset that survives the parent's mapping
// being closed.
func TestMutateWhileMmapServing(t *testing.T) {
	built := genDS(t, "ANTI", 400, 3)
	path := writeV2File(t, built, false)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	mapped, err := repro.LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	engBefore, err := repro.NewEngine(mapped)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := engBefore.Query(ctx, 5, repro.WithTau(1))
	if err != nil {
		t.Fatal(err)
	}

	next, err := mapped.Apply([]repro.Op{
		repro.InsertOp([]float64{0.31, 0.62, 0.93}),
		repro.InsertOp([]float64{0.11, 0.22, 0.33}),
		repro.DeleteOp(7),
		repro.DeleteOp(123),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := next.Storage().Mode; got != repro.StorageHeap {
		t.Fatalf("mutation successor storage mode %q, want %q", got, repro.StorageHeap)
	}
	if next.Storage().SnapshotVersion != snapshot.Version2 {
		t.Fatal("successor lost the parent's snapshot format version")
	}

	// The mapping (and the file under it) must be untouched.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sha256.Sum256(before) != sha256.Sum256(after) {
		t.Fatal("mutating an mmap-served dataset altered the snapshot file")
	}
	again, err := engBefore.Query(ctx, 5, repro.WithTau(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(answerOf(baseline), answerOf(again)) {
		t.Fatal("parent dataset's answers changed after Apply")
	}

	// The successor must not alias the mapping: close it and keep serving.
	if err := mapped.Close(); err != nil {
		t.Fatal(err)
	}
	engNext, err := repro.NewEngine(next)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engNext.Query(ctx, 5, repro.WithTau(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := repro.Validate(next, 5, res); err != nil {
		t.Fatalf("successor result fails validation after parent unmap: %v", err)
	}
}

// TestMmapResnapshotRoundTrip: re-snapshotting a mutated mmap-served
// dataset and reloading it must reproduce the successor exactly — the
// maxrankd mutate → -resnapshot → restart cycle in library form.
func TestMmapResnapshotRoundTrip(t *testing.T) {
	built := genDS(t, "IND", 300, 2)
	path := writeV2File(t, built, false)
	mapped, err := repro.LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	next, err := mapped.Apply([]repro.Op{repro.InsertOp([]float64{0.5, 0.25})})
	if err != nil {
		t.Fatal(err)
	}
	path2 := filepath.Join(t.TempDir(), "next.snap")
	// Format preservation: the successor writes v2 again without being told.
	if err := next.WriteSnapshotFile(path2); err != nil {
		t.Fatal(err)
	}
	if ver := sniffVersion(t, path2); ver != snapshot.Version2 {
		t.Fatalf("re-snapshot wrote format v%d, want v%d", ver, snapshot.Version2)
	}
	reloaded, err := repro.LoadSnapshotFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	defer reloaded.Close()
	if next.Fingerprint() != reloaded.Fingerprint() {
		t.Fatal("fingerprint changed across re-snapshot round trip")
	}
	engNext, _ := repro.NewEngine(next)
	engRe, _ := repro.NewEngine(reloaded)
	a, err := engNext.Query(context.Background(), 9, repro.WithTau(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := engRe.Query(context.Background(), 9, repro.WithTau(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(answerOf(a), answerOf(b)) {
		t.Fatal("results differ across mutate + re-snapshot round trip")
	}
}

func sniffVersion(t *testing.T, path string) int {
	t.Helper()
	hdr, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(hdr) < 12 {
		t.Fatalf("snapshot file %s too short", path)
	}
	return int(uint32(hdr[8]) | uint32(hdr[9])<<8 | uint32(hdr[10])<<16 | uint32(hdr[11])<<24)
}

// TestFloat32SnapshotTolerance: a float32 snapshot quantizes each
// coordinate to the nearest float32 (relative error ≤ 2⁻²⁴) and is
// self-consistent — reloading it yields the fingerprint it records, and a
// second write round-trips bit-identically.
func TestFloat32SnapshotTolerance(t *testing.T) {
	built := genDS(t, "COR", 250, 3)
	path := writeV2File(t, built, true)
	loaded, err := repro.LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	st := loaded.Storage()
	if !st.Float32 {
		t.Fatal("storage stats do not mark the dataset float32")
	}
	if loaded.Len() != built.Len() || loaded.Dim() != built.Dim() {
		t.Fatal("shape changed across float32 round trip")
	}
	for i := 0; i < built.Len(); i++ {
		orig, err := built.Point(i)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Point(i)
		if err != nil {
			t.Fatal(err)
		}
		for j := range orig {
			if got[j] != float64(float32(orig[j])) {
				t.Fatalf("point %d attr %d: %v is not the float32 quantization of %v", i, j, got[j], orig[j])
			}
			if math.Abs(got[j]-orig[j]) > math.Abs(orig[j])*math.Pow(2, -24)+1e-300 {
				t.Fatalf("point %d attr %d: quantization error beyond 2^-24 relative", i, j)
			}
		}
	}
	// Self-consistency: the loaded dataset re-snapshots (still float32,
	// format preserved) to byte-identical content.
	var a bytes.Buffer
	if err := loaded.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), onDisk) {
		t.Fatal("float32 snapshot does not round-trip to identical bytes")
	}
}

// TestMigrateV1ToV2BitIdentical: the library-level migration path — load a
// v1 snapshot, write it back as v2, serve the v2 file via mmap — must
// preserve answers and fingerprints exactly. This is what the maxrank
// migrate-snapshot command does.
func TestMigrateV1ToV2BitIdentical(t *testing.T) {
	built := genDS(t, "ANTI", 350, 3)
	dir := t.TempDir()
	v1path := filepath.Join(dir, "v1.snap")
	if err := built.WriteSnapshotFileVersion(v1path, snapshot.Version1, false); err != nil {
		t.Fatal(err)
	}
	fromV1, err := repro.LoadSnapshotFile(v1path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fromV1.Storage().Mode; got != repro.StorageHeap {
		t.Fatalf("v1 load reports storage mode %q (v1 is never mmapped)", got)
	}
	v2path := filepath.Join(dir, "v2.snap")
	if err := fromV1.WriteSnapshotFileVersion(v2path, snapshot.Version2, false); err != nil {
		t.Fatal(err)
	}
	fromV2, err := repro.LoadSnapshotFile(v2path)
	if err != nil {
		t.Fatal(err)
	}
	defer fromV2.Close()
	if fromV2.Storage().Mode != repro.StorageMmap {
		t.Fatal("migrated v2 file did not mmap")
	}
	if built.Fingerprint() != fromV2.Fingerprint() {
		t.Fatal("fingerprint changed across v1→v2 migration")
	}
	eng1, _ := repro.NewEngine(fromV1)
	eng2, _ := repro.NewEngine(fromV2)
	ctx := context.Background()
	for _, focal := range []int{2, 77} {
		a, err := eng1.Query(ctx, focal, repro.WithTau(1), repro.WithOutrankIDs(true))
		if err != nil {
			t.Fatal(err)
		}
		b, err := eng2.Query(ctx, focal, repro.WithTau(1), repro.WithOutrankIDs(true))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(answerOf(a), answerOf(b)) {
			t.Fatalf("focal %d: results differ across v1→v2 migration", focal)
		}
	}
}
