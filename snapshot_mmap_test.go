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
func writeV2File(t testing.TB, ds *repro.Dataset) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ds.snap")
	if err := ds.WriteSnapshotFile(path); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
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
				path := writeV2File(t, built)
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
// both modes — zero heap bytes while the points alias the mapping (a
// mapped index caches no nodes), heap bytes that count a heap index's node
// cache, a non-trivial mapped size, and the provenance fields
// round-tripped.
func TestMmapStorageStats(t *testing.T) {
	built := genDS(t, "IND", 300, 3)
	path := writeV2File(t, built)
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
	// A heap index serves from its decoded node cache, which heap_bytes
	// counts on top of the points and pages: more than the whole file,
	// which holds those two and a few headers.
	if hst.HeapBytes <= st.MappedBytes {
		t.Fatalf("heap_bytes %d does not exceed the %d bytes of points and pages", hst.HeapBytes, st.MappedBytes)
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
	path := writeV2File(t, built)
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
	if v := next.Storage().SnapshotVersion; v != 0 {
		t.Fatalf("successor reports snapshot version %d; it was loaded from no file", v)
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
	path := writeV2File(t, built)
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
	// There is one format: the successor writes v2 like everything else.
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
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return snapshot.VersionOf(data)
}

// float32File writes ds — whose coordinates must be float32-exact — as a
// float32-point v2 file, the way the removed -f32 mode used to: nothing in
// the repository produces such files any more, so the test re-flags a
// decoded image and lets EncodeV2 lay it out.
func float32File(t *testing.T, ds *repro.Dataset) string {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.DecodeV2(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	snap.Float32 = true
	img, err := snapshot.EncodeV2(snap)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "f32.snap")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFloat32SnapshotTolerance: float32 files are no longer written, but
// the ones that exist keep loading bit-exactly. A dataset quantized to the
// nearest float32 (relative error ≤ 2⁻²⁴ against the original) and stored
// as float32 loads — mapped and on the heap — to exactly the quantized
// coordinates, answers like the same dataset built in process, and
// re-snapshots as float64 v2 with its fingerprint preserved.
func TestFloat32SnapshotTolerance(t *testing.T) {
	orig := genDS(t, "COR", 250, 3)
	rows := make([][]float64, orig.Len())
	for i := range rows {
		p, err := orig.Point(i)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range p {
			q := float64(float32(v))
			if math.Abs(q-v) > math.Abs(v)*math.Pow(2, -24)+1e-300 {
				t.Fatalf("point %d attr %d: quantization error beyond 2^-24 relative", i, j)
			}
			p[j] = q
		}
		rows[i] = p
	}
	built, err := repro.NewDataset(rows)
	if err != nil {
		t.Fatal(err)
	}
	path := float32File(t, built)
	engBuilt, err := repro.NewEngine(built)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engBuilt.Query(context.Background(), 11, repro.WithTau(1), repro.WithOutrankIDs(true))
	if err != nil {
		t.Fatal(err)
	}
	var canonical bytes.Buffer
	if err := built.WriteSnapshot(&canonical); err != nil {
		t.Fatal(err)
	}
	for _, mmap := range []bool{true, false} {
		loaded, err := repro.LoadSnapshotFile(path, repro.WithMmap(mmap))
		if err != nil {
			t.Fatalf("mmap=%t: %v", mmap, err)
		}
		defer loaded.Close()
		if st := loaded.Storage(); !st.Float32 || (st.Mode == repro.StorageMmap) != mmap {
			t.Fatalf("mmap=%t: storage stats %+v", mmap, st)
		}
		if loaded.Fingerprint() != built.Fingerprint() {
			t.Fatalf("mmap=%t: fingerprint changed across the float32 file", mmap)
		}
		for i, row := range rows {
			got, err := loaded.Point(i)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, row) {
				t.Fatalf("mmap=%t: point %d loaded as %v, stored %v", mmap, i, got, row)
			}
		}
		eng, err := repro.NewEngine(loaded)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Query(context.Background(), 11, repro.WithTau(1), repro.WithOutrankIDs(true))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(answerOf(got), answerOf(want)) {
			t.Fatalf("mmap=%t: float32-loaded dataset answers differently from the built one", mmap)
		}
		// Re-snapshot: float64 v2, byte-identical to the built dataset's own.
		var again bytes.Buffer
		if err := loaded.WriteSnapshot(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), canonical.Bytes()) {
			t.Fatalf("mmap=%t: re-snapshot of a float32-loaded dataset is not the canonical float64 v2 image", mmap)
		}
	}
}

// The committed legacy fixture: IND n = 200, d = 3, seed 1, written by the
// v1 writer in the last commit that had one.
const (
	v1FixturePath   = "internal/snapshot/testdata/v1_ind_n200_d3.snap"
	v1FixtureSHA256 = "d133d2dd47a10a7306aa4fb3129ee148da790cb3b7ce63ed98e9cc406a31020c"
)

// TestLegacyV1ThroughTheOneLoader: a v1 file is a conversion in front of
// the one loader, not a second path. The committed fixture loads through
// LoadSnapshotFile and LoadSnapshot (heap, as v1 always did), answers
// bit-identically — Stats.IO included — to the same dataset built in
// process, and re-snapshots as a v2 file that maps and answers the same.
// This is also what maxrank migrate-snapshot does.
func TestLegacyV1ThroughTheOneLoader(t *testing.T) {
	raw, err := os.ReadFile(v1FixturePath)
	if err != nil {
		t.Fatal(err)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(raw)); sum != v1FixtureSHA256 {
		t.Fatalf("fixture bytes changed: sha256 %s", sum)
	}
	if ver := sniffVersion(t, v1FixturePath); ver != snapshot.Version1 {
		t.Fatalf("fixture is format v%d", ver)
	}
	built, err := repro.GenerateDataset("IND", 200, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := repro.LoadSnapshotFile(v1FixturePath)
	if err != nil {
		t.Fatal(err)
	}
	fromReader, err := repro.LoadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	v2path := filepath.Join(t.TempDir(), "v2.snap")
	if err := fromFile.WriteSnapshotFile(v2path); err != nil {
		t.Fatal(err)
	}
	if ver := sniffVersion(t, v2path); ver != snapshot.Version2 {
		t.Fatalf("re-snapshot wrote format v%d", ver)
	}
	remapped, err := repro.LoadSnapshotFile(v2path)
	if err != nil {
		t.Fatal(err)
	}
	defer remapped.Close()
	if got := remapped.Storage().Mode; got != repro.StorageMmap {
		t.Fatalf("migrated v2 file loaded in mode %q", got)
	}

	engBuilt, err := repro.NewEngine(built)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, ds := range map[string]*repro.Dataset{"file": fromFile, "reader": fromReader} {
		if st := ds.Storage(); st.Mode != repro.StorageHeap || st.SnapshotVersion != snapshot.Version1 {
			t.Fatalf("%s: v1 load reports storage %+v", name, st)
		}
	}
	for name, ds := range map[string]*repro.Dataset{"file": fromFile, "reader": fromReader, "re-snapshot": remapped} {
		if ds.Fingerprint() != built.Fingerprint() {
			t.Fatalf("%s: fingerprint %s, built %s", name, ds.Fingerprint(), built.Fingerprint())
		}
		eng, err := repro.NewEngine(ds)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []repro.Algorithm{repro.BA, repro.AA} {
			for _, focal := range []int{2, 77, 199} {
				opts := []repro.Option{repro.WithAlgorithm(alg), repro.WithTau(1), repro.WithOutrankIDs(true)}
				want, err := engBuilt.Query(ctx, focal, opts...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.Query(ctx, focal, opts...)
				if err != nil {
					t.Fatalf("%s %v focal %d: %v", name, alg, focal, err)
				}
				if !reflect.DeepEqual(answerOf(got), answerOf(want)) {
					t.Fatalf("%s %v focal %d: answer differs from the dataset built in process", name, alg, focal)
				}
			}
		}
	}
}

// TestMigrateV1ToV2BitIdentical: what maxrank migrate-snapshot does — heap
// load, then write — turns the legacy fixture into exactly the file an
// in-process build of the same dataset writes. Migration has no output of
// its own: there is one canonical image per dataset.
func TestMigrateV1ToV2BitIdentical(t *testing.T) {
	fromV1, err := repro.LoadSnapshotFile(v1FixturePath, repro.WithMmap(false))
	if err != nil {
		t.Fatal(err)
	}
	migrated := filepath.Join(t.TempDir(), "migrated.snap")
	if err := fromV1.WriteSnapshotFile(migrated); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(migrated)
	if err != nil {
		t.Fatal(err)
	}
	built, err := repro.GenerateDataset("IND", 200, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := built.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("migrated v1 file is not the canonical v2 image of its dataset")
	}
}
