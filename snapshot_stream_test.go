package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/pager"
	"repro/internal/rstar"
	"repro/internal/snapshot"
)

// mutatedDataset applies batches of mutate_cycle's shape (inserts plus
// deletes of random records) to ds, so record indexes and tree IDs part
// and WriteSnapshot relabels leaves.
func mutatedDataset(t testing.TB, ds *Dataset, batches int, seed int64) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for range batches {
		var ops []Op
		for range 32 {
			p := make([]float64, ds.Dim())
			for j := range p {
				p[j] = rng.Float64()
			}
			ops = append(ops, InsertOp(p))
		}
		for _, i := range rng.Perm(ds.Len())[:32] {
			ops = append(ops, DeleteOp(i))
		}
		next, err := ds.Apply(ops)
		if err != nil {
			t.Fatal(err)
		}
		ds = next
	}
	if ds.tab.lastID() == int64(ds.Len()-1) {
		t.Fatal("mutated dataset's tree IDs are still its record indexes")
	}
	return ds
}

// flatSnapshot is the snapshot value WriteSnapshot stands for, built the
// plain way: every point copied in record order, and every leaf page
// copied with its tree IDs relabelled to record indexes.
func flatSnapshot(t *testing.T, ds *Dataset) *snapshot.Snapshot {
	t.Helper()
	index := make([]uint32, ds.tab.lastID()+1)
	s := &snapshot.Snapshot{
		Fingerprint:    ds.Fingerprint(),
		Dim:            ds.Dim(),
		Count:          ds.Len(),
		PageSize:       ds.tree.Source().PageSize(),
		QuadMaxPartial: ds.quadMaxPartial,
		QuadMaxDepth:   ds.quadMaxDepth,
		Root:           int64(ds.tree.Root()),
		Height:         ds.tree.Height(),
	}
	for i := range ds.Len() {
		s.Points = append(s.Points, ds.tab.row(i)...)
		index[ds.tab.id(i)] = uint32(i)
	}
	err := ds.tree.Source().ForEachPage(func(id pager.PageID, data []byte) error {
		data = slices.Clone(data)
		if rstar.IsLeafPage(data) {
			if err := rstar.RelabelLeafPage(data, index); err != nil {
				return err
			}
		}
		s.Pages = append(s.Pages, snapshot.Page{ID: int64(id), Data: data})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWriteSnapshotStreamsTheFormat: the bytes WriteSnapshot streams from
// the record table's chunks and the pager's pages, relabelling leaves one
// at a time, are exactly EncodeV2 of the flat snapshot value, for built,
// mmap-loaded and mutated datasets alike.
func TestWriteSnapshotStreamsTheFormat(t *testing.T) {
	for _, dim := range []int{2, 3, 5} {
		built, err := GenerateDataset("IND", 3000, dim, int64(dim))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "d.snap")
		if err := built.WriteSnapshotFile(path); err != nil {
			t.Fatal(err)
		}
		mapped, err := LoadSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mapped.Close() })
		if mapped.Storage().Mode != StorageMmap {
			t.Fatalf("d=%d: loaded dataset is %s", dim, mapped.Storage().Mode)
		}
		for name, ds := range map[string]*Dataset{
			"built":          built,
			"mapped":         mapped,
			"mutated":        mutatedDataset(t, built, 3, int64(dim)),
			"mapped-mutated": mutatedDataset(t, mapped, 2, int64(dim)+10),
		} {
			var got bytes.Buffer
			if err := ds.WriteSnapshot(&got); err != nil {
				t.Fatal(err)
			}
			want, err := snapshot.EncodeV2(flatSnapshot(t, ds))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("d=%d %s: WriteSnapshot wrote %d bytes that differ from the %d-byte encoding of its snapshot",
					dim, name, got.Len(), len(want))
			}
		}
	}
}

// TestWriteSnapshotBytesPinned pins one mutated dataset's snapshot byte
// for byte, so no change to the write path can move the format unnoticed.
func TestWriteSnapshotBytesPinned(t *testing.T) {
	const want = "a3c3f50e0743d539355f2a042a509f43b970f6c794d4ea82ccc6c13ce8f4a200"
	built, err := GenerateDataset("IND", 2000, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	ds := mutatedDataset(t, built, 3, 12)
	var buf bytes.Buffer
	if err := ds.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("snapshot SHA-256 %s, want %s (%d bytes)", got, want, buf.Len())
	}
}

// writeBudget is what a snapshot write may allocate beside the tree-ID to
// index table: the 64 KiB write buffer, one page of scratch, the page list,
// the runs and the pager's sorted page IDs. Measured at 120 KiB for a
// mutated IND n = 100 000, d = 2 dataset, whose file is about 4 MB.
const writeBudget = 256 << 10

// TestWriteSnapshotAllocations: a write allocates the relabelling table,
// 4 bytes a tree ID, and a fixed budget, nothing in proportion to the
// file. The write measures 523 232 B at lastID 100 127; with 8 bytes a
// tree ID it measured 924 640 B and crosses the budget.
func TestWriteSnapshotAllocations(t *testing.T) {
	built, err := GenerateDataset("IND", 100000, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds := mutatedDataset(t, built, 4, 1)
	ds.Fingerprint()
	write := func() {
		if err := ds.WriteSnapshot(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	write()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 5
	for range runs {
		write()
	}
	runtime.ReadMemStats(&after)
	bytes := int64(after.TotalAlloc-before.TotalAlloc) / runs
	budget := 4*(ds.tab.lastID()+1) + writeBudget
	t.Logf("write allocates %d bytes, budget %d", bytes, budget)
	if bytes > budget {
		t.Errorf("WriteSnapshot allocates %d bytes, budget %d (4 a tree ID plus %d)", bytes, budget, writeBudget)
	}
}

// BenchmarkWriteSnapshot writes a mutated IND n = 100 000, d = 2 dataset,
// mutate_cycle's, to io.Discard: the relabel path.
func BenchmarkWriteSnapshot(b *testing.B) {
	built, err := GenerateDataset("IND", 100000, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	ds := mutatedDataset(b, built, 4, 1)
	ds.Fingerprint()
	b.ReportAllocs()
	for b.Loop() {
		if err := ds.WriteSnapshot(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
