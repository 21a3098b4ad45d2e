package rstar

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/pager"
	"repro/internal/vecmath"
)

func randomPoints(rng *rand.Rand, n, d int) []vecmath.Point {
	pts := make([]vecmath.Point, n)
	for i := range pts {
		p := make(vecmath.Point, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

func newTree(t *testing.T, d int) (*Tree, *pager.Store) {
	t.Helper()
	store := pager.NewStore(0)
	tree, err := New(store, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tree, store
}

// mappedCopy serves the pages of a finalized heap tree through a read-only
// pager.Mapped source, as a snapshot loaded from a file is served: the same
// tree, decoding every page it reads.
func mappedCopy(t testing.TB, tree *Tree) *Tree {
	t.Helper()
	var pages []pager.MappedPage
	tree.Source().ForEachPage(func(id pager.PageID, data []byte) error {
		pages = append(pages, pager.MappedPage{ID: id, Data: data})
		return nil
	})
	src, err := pager.NewMapped(tree.Source().PageSize(), pages)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := RestoreFrom(src, tree.Dim(), tree.Root(), tree.Height(), tree.Size(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ro
}

// everything is a window holding every record of a d-dimensional tree.
func everything(d int) geom.Rect {
	lo, hi := make(vecmath.Point, d), make(vecmath.Point, d)
	for i := range lo {
		lo[i], hi[i] = -math.MaxFloat64, math.MaxFloat64
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

func TestInsertAndInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tree, _ := newTree(t, 3)
	pts := randomPoints(rng, 2000, 3)
	for i, p := range pts {
		if err := tree.Insert(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Size() != 2000 {
		t.Fatalf("size = %d", tree.Size())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tree.Height() < 2 {
		t.Fatalf("height = %d, expected a multi-level tree", tree.Height())
	}
}

func TestBulkLoadAndInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 5, 100, 5000} {
		tree, _ := newTree(t, 4)
		pts := randomPoints(rng, n, 4)
		if err := tree.BulkLoad(pts, nil); err != nil {
			t.Fatal(err)
		}
		if tree.Size() != int64(n) {
			t.Fatalf("n=%d: size = %d", n, tree.Size())
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestRangeCountMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randomPoints(rng, 3000, 3)
	for _, build := range []string{"insert", "bulk"} {
		tree, _ := newTree(t, 3)
		if build == "insert" {
			for i, p := range pts {
				if err := tree.Insert(p, int64(i)); err != nil {
					t.Fatal(err)
				}
			}
		} else if err := tree.BulkLoad(pts, nil); err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 50; trial++ {
			lo := make(vecmath.Point, 3)
			hi := make(vecmath.Point, 3)
			for j := 0; j < 3; j++ {
				a, b := rng.Float64(), rng.Float64()
				if a > b {
					a, b = b, a
				}
				lo[j], hi[j] = a, b
			}
			window := geom.Rect{Lo: lo, Hi: hi}
			want := int64(0)
			for _, p := range pts {
				if window.Contains(p) {
					want++
				}
			}
			got, err := tree.Reader(nil).RangeCount(window)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s trial %d: count = %d, want %d", build, trial, got, want)
			}
		}
	}
}

func TestRangeSearchReportsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := randomPoints(rng, 1000, 2)
	tree, _ := newTree(t, 2)
	if err := tree.BulkLoad(pts, nil); err != nil {
		t.Fatal(err)
	}
	window := geom.MustRect(vecmath.Point{0.2, 0.2}, vecmath.Point{0.7, 0.7})
	seen := map[int64]bool{}
	err := tree.Reader(nil).RangeSearch(window, func(it Item) bool {
		seen[it.RecordID] = true
		if !window.Contains(it.Point) {
			t.Fatalf("record %d outside window", it.RecordID)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if window.Contains(p) != seen[int64(i)] {
			t.Fatalf("record %d misreported", i)
		}
	}
}

func TestRangeSearchEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 500, 2)
	tree, _ := newTree(t, 2)
	if err := tree.BulkLoad(pts, nil); err != nil {
		t.Fatal(err)
	}
	count := 0
	err := tree.Reader(nil).RangeSearch(everything(2), func(Item) bool {
		count++
		return count < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("early stop visited %d records", count)
	}
}

func TestDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := randomPoints(rng, 800, 2)
	tree, _ := newTree(t, 2)
	for i, p := range pts {
		if err := tree.Insert(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete half the records and verify counts and invariants.
	for i := 0; i < 400; i++ {
		okDel, err := tree.Delete(pts[i], int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !okDel {
			t.Fatalf("record %d not found for deletion", i)
		}
	}
	if tree.Size() != 400 {
		t.Fatalf("size = %d, want 400", tree.Size())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Deleted records are gone; survivors remain.
	got, err := tree.Reader(nil).RangeCount(geom.UnitCube(2))
	if err != nil {
		t.Fatal(err)
	}
	if got != 400 {
		t.Fatalf("range count = %d, want 400", got)
	}
	// Deleting a non-existent record reports false.
	okDel, err := tree.Delete(pts[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if okDel {
		t.Fatal("double delete succeeded")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := randomPoints(rng, 1500, 3)
	built, _ := newTree(t, 3)
	if err := built.BulkLoad(pts, nil); err != nil {
		t.Fatal(err)
	}
	if err := built.Finalize(); err != nil {
		t.Fatal(err)
	}
	// Every query below decodes nodes from page bytes.
	tree := mappedCopy(t, built)
	window := geom.MustRect(vecmath.Point{0.1, 0.1, 0.1}, vecmath.Point{0.9, 0.9, 0.9})
	want := int64(0)
	for _, p := range pts {
		if window.Contains(p) {
			want++
		}
	}
	var tr pager.Tracker
	got, err := tree.Reader(&tr).RangeCount(window)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("decoded count = %d, want %d", got, want)
	}
	if tr.Reads() == 0 {
		t.Fatal("no page reads counted")
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateShortcutSavesIO(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := randomPoints(rng, 20000, 2)
	store := pager.NewStore(0)
	tree, err := New(store, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(pts, nil); err != nil {
		t.Fatal(err)
	}
	if err := tree.Finalize(); err != nil {
		t.Fatal(err)
	}
	// A huge window should be answered mostly from aggregate counts.
	window := geom.MustRect(vecmath.Point{0.01, 0.01}, vecmath.Point{0.99, 0.99})
	var countTr, searchTr pager.Tracker
	if _, err := tree.Reader(&countTr).RangeCount(window); err != nil {
		t.Fatal(err)
	}
	countReads := countTr.Reads()
	found := 0
	if err := tree.Reader(&searchTr).RangeSearch(window, func(Item) bool { found++; return true }); err != nil {
		t.Fatal(err)
	}
	searchReads := searchTr.Reads()
	if countReads*2 > searchReads {
		t.Fatalf("aggregate count used %d reads vs search %d: shortcut not effective", countReads, searchReads)
	}
}

func TestPageSizeFanout(t *testing.T) {
	if f := MaxLeafEntries(4096, 4); f != (4096-8)/40 {
		t.Fatalf("leaf fanout = %d", f)
	}
	if f := MaxBranchEntries(4096, 4); f != (4096-8)/80 {
		t.Fatalf("branch fanout = %d", f)
	}
	store := pager.NewStore(64)
	if _, err := New(store, 8, Options{}); err == nil {
		t.Fatal("tiny pages should be rejected")
	}
}

func TestDimensionValidation(t *testing.T) {
	tree, _ := newTree(t, 2)
	if err := tree.Insert(vecmath.Point{1, 2, 3}, 0); err == nil {
		t.Fatal("wrong-dim insert accepted")
	}
	if _, err := tree.Delete(vecmath.Point{1}, 0); err == nil {
		t.Fatal("wrong-dim delete accepted")
	}
	if err := tree.BulkLoad([]vecmath.Point{{1, 2, 3}}, nil); err == nil {
		t.Fatal("wrong-dim bulk load accepted")
	}
	if err := tree.BulkLoad([]vecmath.Point{{1, 2}}, []int64{1, 2}); err == nil {
		t.Fatal("mismatched ids accepted")
	}
}

func TestDuplicatePoints(t *testing.T) {
	tree, _ := newTree(t, 2)
	p := vecmath.Point{0.5, 0.5}
	for i := 0; i < 300; i++ {
		if err := tree.Insert(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got, err := tree.Reader(nil).RangeCount(geom.PointRect(p))
	if err != nil {
		t.Fatal(err)
	}
	if got != 300 {
		t.Fatalf("duplicate count = %d", got)
	}
}

// TestMutationChurnReusesPages: sustained insert/delete cycles must not
// grow the store's page-ID space without bound — freed node pages (splits
// condensed away, shrunken roots) are recycled by the pager free list.
func TestMutationChurnReusesPages(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tree, store := newTree(t, 3)
	pts := randomPoints(rng, 500, 3)
	for i, p := range pts {
		if err := tree.Insert(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	high := store.MaxPageID()
	for cycle := 0; cycle < 30; cycle++ {
		for i := 0; i < 100; i++ {
			ok, err := tree.Delete(pts[i], int64(i))
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("cycle %d: record %d missing", cycle, i)
			}
		}
		for i := 0; i < 100; i++ {
			if err := tree.Insert(pts[i], int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	if tree.Size() != 500 {
		t.Fatalf("size = %d, want 500", tree.Size())
	}
	// Allow a little headroom over the starting extent (node population
	// shifts between cycles), but reject unbounded growth: without the
	// free list 30 cycles leak hundreds of page IDs.
	if grown := store.MaxPageID() - high; grown > high/2 {
		t.Fatalf("page-ID space grew by %d over 30 churn cycles (from %d); free list not reusing pages", grown, high)
	}
}

// TestRemapRecordIDs: RelabelLeafPage rewrites the record IDs of leaf
// pages and leaves branch pages alone, and a tree restored from the
// relabelled pages finds its records under the new IDs.
func TestRemapRecordIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tree, store := newTree(t, 2)
	pts := randomPoints(rng, 300, 2)
	for i, p := range pts {
		if err := tree.Insert(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Finalize(); err != nil {
		t.Fatal(err)
	}
	index := make([]uint32, len(pts))
	for i := range index {
		index[i] = uint32(i) + 1000
	}
	pages := map[pager.PageID][]byte{}
	err := store.ForEachPage(func(id pager.PageID, data []byte) error {
		pages[id] = slices.Clone(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	leaves := 0
	for id, page := range pages {
		if !IsLeafPage(page) {
			if err := RelabelLeafPage(page, index); err == nil {
				t.Fatalf("branch page %d relabelled", id)
			}
			continue
		}
		leaves++
		if err := RelabelLeafPage(slices.Clone(page), index[:1]); err == nil {
			t.Fatalf("leaf page %d relabelled through a table missing its IDs", id)
		}
		if err := RelabelLeafPage(page, index); err != nil {
			t.Fatal(err)
		}
		if err := store.Write(id, page); err != nil {
			t.Fatal(err)
		}
	}
	if leaves < 2 {
		t.Fatalf("%d leaf pages; the test wants a branch level", leaves)
	}
	if err := RelabelLeafPage([]byte{0, 0, 1, 0, 2, 0, 0, 0}, index); err == nil {
		t.Fatal("truncated leaf page relabelled")
	}
	relabelled, err := RestoreFrom(store, 2, tree.Root(), tree.Height(), tree.Size(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		ok, err := relabelled.Delete(p, int64(i)+1000)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("record %d not found under remapped ID", i)
		}
		if i >= 10 {
			break
		}
	}
}

// finalizedTree bulk-loads n random d-dim points onto small pages, so the
// tree has branch and leaf levels, and finalizes it.
func finalizedTree(t *testing.T, n, d int, opts Options) (*Tree, *pager.Store) {
	t.Helper()
	store := pager.NewStore(512)
	tree, err := New(store, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(randomPoints(rand.New(rand.NewSource(int64(n+d))), n, d), nil); err != nil {
		t.Fatal(err)
	}
	if err := tree.Finalize(); err != nil {
		t.Fatal(err)
	}
	return tree, store
}

// TestDecodedBoundsAreCapped: every coordinate of a decoded page shares one
// slab, so an append to one entry's Lo(i) or Hi(i) must reallocate rather
// than overwrite the next entry's.
func TestDecodedBoundsAreCapped(t *testing.T) {
	built, _ := finalizedTree(t, 300, 3, Options{})
	if built.Height() < 2 {
		t.Fatalf("height %d: no branch level to check", built.Height())
	}
	rd := mappedCopy(t, built).Reader(nil)
	branch, err := rd.ReadNodeInto(rd.Root(), nil)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := rd.ReadNodeInto(branch.Child(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*Node{branch, leaf} {
		for i := 0; i+1 < n.Len(); i++ {
			next := n.rect(i + 1).Clone()
			hi := n.Hi(i).Clone()
			_ = append(n.Lo(i), -1)
			_ = append(n.Hi(i), -1)
			if !n.Lo(i+1).Equal(next.Lo) || !n.Hi(i+1).Equal(next.Hi) {
				t.Fatalf("level %d: append to entry %d's bounds changed entry %d to %v, was %v",
					n.Level, i, i+1, n.rect(i+1), next)
			}
			if !n.Hi(i).Equal(hi) {
				t.Fatalf("level %d: append to entry %d's Lo changed its Hi to %v, was %v", n.Level, i, n.Hi(i), hi)
			}
		}
	}
}

// sameNode reports whether two reads of one page hold the same node: the
// same header and slabs, whatever their spare capacity.
func sameNode(a, b *Node) bool {
	return a.ID == b.ID && a.Level == b.Level && a.dim == b.dim &&
		slices.Equal(a.coords, b.coords) && slices.Equal(a.ids, b.ids) && slices.Equal(a.counts, b.counts)
}

// TestReadNodeInto: on a heap tree ReadNodeInto returns the cached node and
// leaves the buffer alone; on a mapped copy of it, which decodes, it
// returns the buffer, reused page after page, holding the cached node's
// content, and charges one page read a call.
func TestReadNodeInto(t *testing.T) {
	tree, store := finalizedTree(t, 400, 2, Options{})
	var buf Node
	heap := tree.Reader(nil)
	cached, err := heap.ReadNodeInto(tree.Root(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := heap.ReadNodeInto(tree.Root(), &buf); err != nil || got != cached {
		t.Fatalf("heap tree: ReadNodeInto returned %p (%v), want the cached node %p", got, err, cached)
	}
	if buf.Coords() != nil || buf.RecordIDs() != nil {
		t.Fatal("heap tree: ReadNodeInto decoded into the buffer")
	}

	var tr pager.Tracker
	rd := mappedCopy(t, tree).Reader(&tr)
	reads := 0
	err = store.ForEachPage(func(id pager.PageID, _ []byte) error {
		want, err := heap.ReadNodeInto(id, nil)
		if err != nil {
			return err
		}
		got, err := rd.ReadNodeInto(id, &buf)
		if err != nil {
			return err
		}
		reads++
		if got != &buf {
			t.Fatalf("page %d: ReadNodeInto did not decode into the buffer", id)
		}
		if !sameNode(got, want) {
			t.Fatalf("page %d: ReadNodeInto %+v, cached %+v", id, *got, *want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Reads() != int64(reads) {
		t.Fatalf("%d ReadNodeInto calls charged %d page reads", reads, tr.Reads())
	}
}

// TestRestoreThenMutate: a tree restored over a heap store has its node
// cache decoded into per-page slabs, and inserts and deletes — splits,
// reinserts and condensing moving entries between nodes — keep it a valid
// tree.
func TestRestoreThenMutate(t *testing.T) {
	built, src := finalizedTree(t, 600, 3, Options{})
	store := pager.NewStore(src.PageSize())
	err := src.ForEachPage(func(id pager.PageID, data []byte) error { return store.Restore(id, data) })
	if err != nil {
		t.Fatal(err)
	}
	tree, err := RestoreFrom(store, 3, built.Root(), built.Height(), built.Size(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var items []Item
	err = built.Reader(nil).RangeSearch(everything(3), func(it Item) bool {
		items = append(items, Item{Point: it.Point.Clone(), RecordID: it.RecordID})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i, p := range randomPoints(rng, 400, 3) {
		if err := tree.Insert(p, int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, it := range items[:300] {
		ok, err := tree.Delete(it.Point, it.RecordID)
		if err != nil || !ok {
			t.Fatalf("delete of record %d: %v, %v", it.RecordID, ok, err)
		}
	}
	if err := tree.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if want := int64(600 + 400 - 300); tree.Size() != want {
		t.Fatalf("size %d, want %d", tree.Size(), want)
	}
}

// TestCachedBytes: a heap tree's node cache holds every entry with its
// coordinates; a mapped copy caches nothing.
func TestCachedBytes(t *testing.T) {
	tree, _ := finalizedTree(t, 500, 3, Options{})
	if points := int64(500 * 3 * 8); tree.CachedBytes() <= points {
		t.Fatalf("heap tree caches %d bytes, want more than its %d bytes of points", tree.CachedBytes(), points)
	}
	if got := mappedCopy(t, tree).CachedBytes(); got != 0 {
		t.Fatalf("mapped tree caches %d bytes, want 0", got)
	}
}
