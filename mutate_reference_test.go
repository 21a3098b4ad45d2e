package repro

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pager"
	"repro/internal/rstar"
	"repro/internal/vecmath"
)

// applyReference is Apply as it was before datasets forked their index:
// copy every page into a fresh heap store, decode all of it, delete,
// renumber every surviving leaf entry to its dense record index, insert,
// and write the whole tree out again. The renumbering goes through the
// pages — write the tree, rewrite each leaf page's record IDs, decode it
// back — since the tree no longer renumbers in place. The batch must be
// valid and the receiver's tree IDs its record indexes, as every dataset
// this function returns has.
func applyReference(ds *Dataset, ops []Op) (*Dataset, error) {
	n := ds.Len()
	if ds.tab.lastID() != int64(n-1) {
		return nil, fmt.Errorf("reference apply on a dataset with its own tree IDs")
	}
	deleted := map[int]bool{}
	var inserts []vecmath.Point
	for _, op := range ops {
		if op.Kind == OpInsert {
			inserts = append(inserts, vecmath.Point(op.Point).Clone())
		} else {
			deleted[op.Index] = true
		}
	}
	src := ds.tree.Source()
	store := pager.NewStore(src.PageSize())
	if err := src.ForEachPage(store.Restore); err != nil {
		return nil, err
	}
	store.ReclaimGaps()
	tree, err := rstar.RestoreFrom(store, ds.Dim(), ds.tree.Root(), ds.tree.Height(), ds.tree.Size(), rstar.Options{})
	if err != nil {
		return nil, err
	}
	delOrder := make([]int, 0, len(deleted))
	for idx := range deleted {
		delOrder = append(delOrder, idx)
	}
	slices.Sort(delOrder)
	for _, idx := range delOrder {
		if ok, err := tree.Delete(ds.tab.row(idx), int64(idx)); err != nil || !ok {
			return nil, fmt.Errorf("reference delete of record %d: %t, %v", idx, ok, err)
		}
	}
	pts := make([]vecmath.Point, 0, n-len(deleted)+len(inserts))
	newID := make([]uint32, n)
	for i := range n {
		newID[i] = math.MaxUint32 // a deleted record's ID is in no leaf
		if !deleted[i] {
			newID[i] = uint32(len(pts))
			pts = append(pts, ds.tab.row(i))
		}
	}
	if len(deleted) > 0 {
		if err := tree.Finalize(); err != nil {
			return nil, err
		}
		leaves := map[pager.PageID][]byte{}
		err := store.ForEachPage(func(id pager.PageID, data []byte) error {
			if rstar.IsLeafPage(data) {
				leaves[id] = slices.Clone(data)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for id, page := range leaves {
			if err := rstar.RelabelLeafPage(page, newID); err != nil {
				return nil, err
			}
			if err := store.Write(id, page); err != nil {
				return nil, err
			}
		}
		if tree, err = rstar.RestoreFrom(store, ds.Dim(), tree.Root(), tree.Height(), tree.Size(), rstar.Options{}); err != nil {
			return nil, err
		}
	}
	for _, p := range inserts {
		id := int64(len(pts))
		pts = append(pts, p)
		if err := tree.Insert(p, id); err != nil {
			return nil, err
		}
	}
	if err := tree.Finalize(); err != nil {
		return nil, err
	}
	store.SetLatency(ds.pageLatency)
	return &Dataset{
		tab:            flatTable(dataset.Flatten(pts), ds.Dim()),
		tree:           tree,
		quadMaxPartial: ds.quadMaxPartial,
		quadMaxDepth:   ds.quadMaxDepth,
		pageLatency:    ds.pageLatency,
	}, nil
}

// referenceBatch draws batch b of a reference chain over a dataset of n
// records: 32 deletes and 32 inserts, with every fourth batch delete-only
// and every fifth insert-only, the first and last record among the
// deletes every third batch, and some inserts copying a current record.
// Batches also meet the edges of the chunks of tab, the record table of
// the Apply side: by the batch number, they delete a whole chunk (b%10 ==
// 1), the first and last records of three chunks (2), a run across a
// chunk edge (5), or insert enough to fill the tail chunk and open
// another (6).
func referenceBatch(rng *rand.Rand, ds *Dataset, tab *table, b int) []Op {
	n, dim := ds.Len(), ds.Dim()
	deleteOnly := b%4 == 3
	insertOnly := !deleteOnly && b%5 == 4
	var del []int
	if !insertOnly {
		del = rng.Perm(n)[:32]
		if b%3 == 0 {
			del[0], del[1] = 0, n-1
		}
		chunk := func() (lo, hi int) {
			k := rng.Intn(len(tab.chunks))
			return tab.starts[k], tab.starts[k] + len(tab.chunks[k].ids)
		}
		switch b % 10 {
		case 1:
			lo, hi := chunk()
			for i := lo; i < hi; i++ {
				del = append(del, i)
			}
		case 2:
			for range 3 {
				lo, hi := chunk()
				del = append(del, lo, hi-1)
			}
		case 5:
			k := 1 + rng.Intn(len(tab.chunks)-1)
			for i := tab.starts[k] - 10; i < tab.starts[k]+10; i++ {
				del = append(del, i)
			}
		}
		slices.Sort(del)
		del = slices.Compact(del)
	}
	inserts := 32
	if b%10 == 6 {
		inserts += chunkCap - len(tab.chunks[len(tab.chunks)-1].ids) + 1
	}
	var ops []Op
	for _, i := range del {
		ops = append(ops, DeleteOp(i))
	}
	if !deleteOnly {
		for k := 0; k < inserts; k++ {
			p := make([]float64, dim)
			if k%8 == 0 {
				copy(p, ds.tab.row(rng.Intn(n)))
			} else {
				for j := range p {
					p[j] = rng.Float64()
				}
			}
			ops = append(ops, InsertOp(p))
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// observation is everything TestApplyMatchesReference compares between a
// dataset and its reference twin.
type observation struct {
	snapshot    []byte
	fingerprint string
	results     []*Result
}

// observe records a dataset's snapshot bytes, fingerprint and whole query
// Results with τ = 2 and outrank IDs — AA, FCA at d = 2, BA when withBA —
// on the given focals, CPUTime zeroed. The outrank IDs come out of the
// tree as tree IDs, so comparing them covers the translation to record
// indexes.
func observe(t *testing.T, ds *Dataset, focals []int, withBA bool) observation {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	ob := observation{snapshot: buf.Bytes(), fingerprint: ds.Fingerprint()}
	algs := []Algorithm{AA}
	if ds.Dim() == 2 {
		algs = append(algs, FCA)
	}
	if withBA {
		algs = append(algs, BA)
	}
	for _, focal := range focals {
		for _, alg := range algs {
			res, err := eng.Query(context.Background(), focal, WithAlgorithm(alg), WithTau(2), WithOutrankIDs(true))
			if err != nil {
				t.Fatalf("focal %d %v: %v", focal, alg, err)
			}
			res.Stats.CPUTime = 0
			ob.results = append(ob.results, res)
		}
	}
	return ob
}

func sameObservation(t *testing.T, label string, got, want observation) {
	t.Helper()
	if !bytes.Equal(got.snapshot, want.snapshot) {
		t.Fatalf("%s: snapshot bytes differ (%d vs %d bytes)", label, len(got.snapshot), len(want.snapshot))
	}
	if got.fingerprint != want.fingerprint {
		t.Fatalf("%s: fingerprint %s, reference %s", label, got.fingerprint, want.fingerprint)
	}
	for i := range want.results {
		if !reflect.DeepEqual(got.results[i], want.results[i]) {
			t.Fatalf("%s: result %d differs\n got: %+v\nwant: %+v", label, i, got.results[i], want.results[i])
		}
	}
}

// TestApplyMatchesReference chains 40 batches through Apply and through
// applyReference side by side and, after every batch, requires the two
// datasets to agree on snapshot bytes, fingerprint and whole query
// Results with Stats.IO and outrank IDs (BA on IND only, every fourth
// batch at d = 3: on ANTI at this size a BA query takes seconds). The
// chains cover delete-only and insert-only batches, deletes of the first
// and the last record, inserts duplicating a record, batches at the edges
// of the Apply side's chunks — a whole chunk deleted, its first and last
// records, a run across an edge, inserts spilling into a new chunk — a
// mapped parent every tenth batch (both sides reloaded from their own
// snapshot files), and a parent forked twice, which must itself answer and
// snapshot as before.
func TestApplyMatchesReference(t *testing.T) {
	for _, dist := range []string{"IND", "ANTI"} {
		for _, dim := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/d=%d", dist, dim), func(t *testing.T) {
				t.Parallel()
				ds, err := GenerateDataset(dist, 20000, dim, int64(dim))
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(38 * dim)))
				dir := t.TempDir()
				got, want := ds, ds
				for b := 0; b < 40; b++ {
					if b%10 == 9 {
						// Continue both chains from mapped snapshots.
						got = reloadMapped(t, got, filepath.Join(dir, fmt.Sprintf("got%d.snap", b)))
						want = reloadMapped(t, want, filepath.Join(dir, fmt.Sprintf("want%d.snap", b)))
					}
					withBA := dist == "IND" && (dim == 2 || b%4 == 0)
					ops := referenceBatch(rng, want, &got.tab, b)
					var sibling []Op
					var parentBefore observation
					if b%10 == 4 {
						sibling = referenceBatch(rng, want, &got.tab, b+1)
						parentBefore = observe(t, got, strongFocals(want), withBA)
					}
					nextWant, err := applyReference(want, ops)
					if err != nil {
						t.Fatalf("batch %d: reference: %v", b, err)
					}
					nextGot, err := got.Apply(ops)
					if err != nil {
						t.Fatalf("batch %d: %v", b, err)
					}
					if sibling != nil {
						sibWant, err := applyReference(want, sibling)
						if err != nil {
							t.Fatalf("batch %d sibling: reference: %v", b, err)
						}
						sibGot, err := got.Apply(sibling)
						if err != nil {
							t.Fatalf("batch %d sibling: %v", b, err)
						}
						focals := strongFocals(sibWant)
						sameObservation(t, fmt.Sprintf("batch %d sibling", b), observe(t, sibGot, focals, withBA), observe(t, sibWant, focals, withBA))
						sameObservation(t, fmt.Sprintf("batch %d parent forked twice", b), observe(t, got, strongFocals(want), withBA), parentBefore)
					}
					got, want = nextGot, nextWant
					checkTable(t, &got.tab)
					focals := strongFocals(want)
					sameObservation(t, fmt.Sprintf("batch %d", b), observe(t, got, focals, withBA), observe(t, want, focals, withBA))
				}
			})
		}
	}
}

// strongFocals picks two focals that answer quickly at n = 20 000: the
// best record under one preference and the fifth best under another, so
// few records are incomparable with them, yet some outrank them. Their
// indexes move from batch to batch as records go.
func strongFocals(ds *Dataset) []int {
	var focals []int
	order := make([]int, ds.Len())
	scores := make([]float64, ds.Len())
	for k, q := range [][]float64{{1, 1, 1}, {3, 1, 2}} {
		for i := range order {
			order[i], scores[i] = i, ds.tab.row(i).Dot(q[:ds.Dim()])
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(scores[b], scores[a]) })
		focals = append(focals, order[4*k])
	}
	return focals
}

// reloadMapped writes ds to path and serves it back from a mapping.
func reloadMapped(t *testing.T, ds *Dataset, path string) *Dataset {
	t.Helper()
	if err := ds.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	m, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestApplyRenumbersTreeIDs chains churn batches — each deletes a sixth of
// the records and inserts as many — so the tree-ID space outgrows the
// record count within a few batches. After every batch the largest tree ID
// must stay below twice the record count, and the dataset must still
// match applyReference; the chain must renumber more than once.
func TestApplyRenumbersTreeIDs(t *testing.T) {
	const n = 600
	ds, err := GenerateDataset("IND", n, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(38))
	got, want := ds, ds
	renumbered := 0
	for b := 0; b < 24; b++ {
		var ops []Op
		for _, i := range rng.Perm(n)[:n/6] {
			ops = append(ops, DeleteOp(i))
		}
		for k := 0; k < n/6; k++ {
			ops = append(ops, InsertOp([]float64{rng.Float64(), rng.Float64()}))
		}
		if want, err = applyReference(want, ops); err != nil {
			t.Fatalf("batch %d: reference: %v", b, err)
		}
		if got, err = got.Apply(ops); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		top := got.tab.lastID()
		if top >= 2*n {
			t.Fatalf("batch %d: largest tree ID %d, want below %d", b, top, 2*n)
		}
		if top == n-1 {
			renumbered++
		}
		focals := strongFocals(want)
		sameObservation(t, fmt.Sprintf("batch %d", b), observe(t, got, focals, true), observe(t, want, focals, true))
	}
	if renumbered < 2 {
		t.Fatalf("renumbered %d times in 24 batches, want at least 2", renumbered)
	}
}
