package rstar

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/pager"
	"repro/internal/vecmath"
)

// chooseSubtreeExhaustive is the R* choose-subtree as first written: every
// candidate's overlap enlargement summed over every other entry, with a
// fresh union rectangle per candidate. chooseSubtree must pick the same
// entry on every input.
func chooseSubtreeExhaustive(n *Node, r geom.Rect) int {
	childrenAreLeaves := n.Level == 1
	best := -1
	bestOverlap := math.Inf(1)
	bestEnlarge := math.Inf(1)
	bestArea := math.Inf(1)
	for i := 0; i < n.Len(); i++ {
		e := n.rect(i)
		enlarged := e.Union(r)
		enlarge := enlarged.Area() - e.Area()
		area := e.Area()
		var overlapDelta float64
		if childrenAreLeaves {
			for j := 0; j < n.Len(); j++ {
				if j == i {
					continue
				}
				o := n.rect(j)
				overlapDelta += enlarged.IntersectionArea(o) - e.IntersectionArea(o)
			}
		}
		better := false
		switch {
		case childrenAreLeaves && overlapDelta < bestOverlap-1e-15:
			better = true
		case childrenAreLeaves && overlapDelta > bestOverlap+1e-15:
			better = false
		case enlarge < bestEnlarge-1e-15:
			better = true
		case enlarge > bestEnlarge+1e-15:
			better = false
		default:
			better = area < bestArea
		}
		if best < 0 || better {
			best = i
			bestOverlap = overlapDelta
			bestEnlarge = enlarge
			bestArea = area
		}
	}
	return best
}

// randomBranch draws a branch node whose entry rects are built to make
// chooseSubtree's shortcuts matter: coordinates on a coarse grid, so rects
// coincide, nest, touch and degenerate to zero width; copies of earlier
// rects; bounds nudged by a few ulps, so areas and overlap sums tie within
// 1e-15 without being equal; and in one node in ten, rects with huge
// coordinates among the small ones, whose areas and intersections
// overflow to +Inf and whose overlap terms can be Inf − Inf.
func randomBranch(rng *rand.Rand, d, level, m int) *Node {
	coord := func(scale float64) float64 {
		v := float64(rng.Intn(9)) / 8
		if rng.Intn(4) == 0 {
			v = math.Nextafter(v, v+float64(rng.Intn(3)-1))
		}
		return v * scale
	}
	huge := rng.Intn(10) == 0
	n := &Node{ID: 1, Level: level, dim: d}
	for n.Len() < m {
		if n.Len() > 0 && rng.Intn(5) == 0 {
			n.pushFrom(n, rng.Intn(n.Len()))
			continue
		}
		scale := 1.0
		if huge && rng.Intn(2) == 0 {
			scale = 1e200
		}
		lo, hi := make(vecmath.Point, d), make(vecmath.Point, d)
		for k := range lo {
			a, b := coord(scale), coord(scale)
			lo[k], hi[k] = min(a, b), max(a, b)
			if rng.Intn(6) == 0 {
				hi[k] = lo[k] // zero width
			}
		}
		n.push(geom.Rect{Lo: lo, Hi: hi}, int64(n.Len()+2), 1)
	}
	return n
}

// TestChooseSubtreeMatchesExhaustive: the pruning choose-subtree picks the
// exhaustive loop's entry on random level-1 and level-2 nodes —
// overlapping, identical and zero-width MBRs, points inside several MBRs,
// near-ties within 1e-15 and non-finite areas — and on leaf parents of
// full fanout tiled like STR leaves.
func TestChooseSubtreeMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for _, d := range []int{2, 3, 4} {
		tree, _ := newTree(t, d)
		for trial := 0; trial < 10000; trial++ {
			level := 1
			if trial%5 == 0 {
				level = 2
			}
			m := 2 + rng.Intn(16)
			if trial%100 == 0 {
				m = tree.maxBranch + 1 // an overflowing node, as a split sees
			}
			n := randomBranch(rng, d, level, m)
			var r geom.Rect
			if trial%3 == 0 {
				// A point inside an existing MBR, often inside several.
				e := n.rect(rng.Intn(n.Len()))
				p := make(vecmath.Point, d)
				for k := range p {
					p[k] = e.Lo[k] + rng.Float64()*(e.Hi[k]-e.Lo[k])
				}
				r = geom.Rect{Lo: p, Hi: p}
			} else {
				r = randomBranch(rng, d, 1, 1).rect(0) // level 1: a leaf entry would keep only Lo
			}
			got, want := tree.chooseSubtree(n, r), chooseSubtreeExhaustive(n, r)
			if got != want {
				t.Fatalf("d=%d trial %d (level %d, %d entries, r %v): chose %d, exhaustive loop chose %d",
					d, trial, level, n.Len(), r, got, want)
			}
		}
	}

	// At real fanout: leaf parents of maxBranch and maxBranch + 1 entries
	// tiled like STR leaves, and points r strictly inside one rect, inside
	// one of the first three (a zero-overlap best found early), inside
	// several, on an edge (often one that two rects share) and outside all.
	// One node in ten has a rect of area +Inf among its first quarter, and
	// one in ten is shrunk by 1e-2 to 1e-7, so overlap sums fall near the
	// 1e-15 the criteria compare within.
	// skipLosers must both start the loop past the first entry and give up
	// on some nodes where an entry after the first covers r.
	var started, gaveUp int
	for _, d := range []int{2, 3} {
		for trial := 0; trial < 2000; trial++ {
			tree, _ := newTree(t, d)
			n := strBranch(rng, tree, tree.maxBranch+trial%2, trial%3 == 0)
			switch trial % 10 {
			case 0:
				n.Hi(rng.Intn(n.Len() / 4))[rng.Intn(d)] = 1e200
			case 5:
				scale := math.Pow(10, -float64(2+rng.Intn(6)))
				for i := range n.coords {
					n.coords[i] *= scale
				}
			}
			r := probePoint(rng, n, trial%5)
			c := 0
			for c < n.Len() && !n.rect(c).ContainsRect(r) {
				c++
			}
			switch start := tree.skipLosers(n, r); {
			case start > 0:
				started++
			case c > 0 && c < n.Len():
				gaveUp++
			}
			got, want := tree.chooseSubtree(n, r), chooseSubtreeExhaustive(n, r)
			if got != want {
				t.Fatalf("d=%d STR trial %d (%d entries, r %v): chose %d, exhaustive loop chose %d",
					d, trial, n.Len(), r, got, want)
			}
		}
	}
	t.Logf("STR trials: skipLosers started past the first entry %d times and gave up %d times", started, gaveUp)
	if started == 0 || gaveUp == 0 {
		t.Fatalf("skipLosers started %d times and gave up %d times; the trials must exercise both", started, gaveUp)
	}
}

// strBranch returns a leaf parent of m entries whose rects are the MBRs of
// STR-packed groups of six random points, tiled as a bulk load tiles
// leaves: they nearly cover the unit cube, overlapping a little and
// leaving gaps. With grid set the points lie on a 1/16 lattice, so rects
// share edges and some have zero width. Copies of random entries fill the
// node up to m when the packing makes fewer groups.
func strBranch(rng *rand.Rand, tree *Tree, m int, grid bool) *Node {
	src := &Node{dim: tree.dim}
	for _, p := range randomPoints(rng, 6*m, tree.dim) {
		if grid {
			for k := range p {
				p[k] = math.Floor(p[k]*16) / 16
			}
		}
		src.push(geom.Rect{Lo: p, Hi: p}, 0, 1)
	}
	n := &Node{ID: 1, Level: 1, dim: tree.dim}
	for _, leaf := range tree.strPack(src, 0, 6) {
		n.pushChild(leaf)
	}
	for n.Len() < m {
		n.pushFrom(n, rng.Intn(n.Len()))
	}
	for n.Len() > m {
		n.remove(n.Len() - 1)
	}
	return n
}

// probePoint draws a point for strBranch's node n by kind: 0 strictly
// inside a random entry, 1 inside one of the first three, 2 inside two
// entries that overlap (else as 0), 3 on a random entry's edge, 4 outside
// every entry, drawn from a box 10% larger than the unit cube (after 100
// draws inside some entry, the last draw).
func probePoint(rng *rand.Rand, n *Node, kind int) geom.Rect {
	d := n.dim
	p := make(vecmath.Point, d)
	inside := func(e geom.Rect) {
		for k := range p {
			p[k] = e.Lo[k] + (0.05+0.9*rng.Float64())*(e.Hi[k]-e.Lo[k])
		}
	}
	inside(n.rect(rng.Intn(n.Len())))
	switch kind {
	case 1:
		inside(n.rect(rng.Intn(3)))
	case 2:
		for try := 0; try < 100; try++ {
			a, b := n.rect(rng.Intn(n.Len())), n.rect(rng.Intn(n.Len()))
			both := newRect(d)
			for k := range both.Lo {
				both.Lo[k], both.Hi[k] = max(a.Lo[k], b.Lo[k]), min(a.Hi[k], b.Hi[k])
			}
			if both.Area() > 0 && !slices.Equal(a.Lo, b.Lo) {
				inside(both)
				break
			}
		}
	case 3:
		e, k := n.rect(rng.Intn(n.Len())), rng.Intn(d)
		inside(e)
		p[k] = e.Lo[k]
		if rng.Intn(2) == 0 {
			p[k] = e.Hi[k]
		}
	case 4:
	draw:
		for try := 0; try < 100; try++ {
			for k := range p {
				p[k] = -0.05 + 1.1*rng.Float64()
			}
			for i := 0; i < n.Len(); i++ {
				if n.rect(i).Contains(p) {
					continue draw
				}
			}
			break
		}
	}
	return geom.Rect{Lo: p, Hi: p}
}

// TestForkLeavesParentUntouched: a fork mutated through inserts, deletes,
// splits, reinserts and root changes, and then finalized, holds a valid
// tree, while its parent — nodes, pages and page IDs — stays exactly as it
// was and keeps answering. A fork of a fork works the same way, and a
// tree with unfinalized changes refuses to fork.
func TestForkLeavesParentUntouched(t *testing.T) {
	parent, store := finalizedTree(t, 600, 2, Options{})
	before := map[pager.PageID][]byte{}
	store.ForEachPage(func(id pager.PageID, data []byte) error {
		before[id] = bytes.Clone(data)
		return nil
	})
	var items []Item
	err := parent.Reader(nil).RangeSearch(everything(2), func(it Item) bool {
		items = append(items, Item{Point: it.Point.Clone(), RecordID: it.RecordID})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(4))
	cur := parent
	for gen := 0; gen < 3; gen++ {
		fork, err := cur.Fork(cur.store.Clone())
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range randomPoints(rng, 150, 2) {
			if err := fork.Insert(p, int64(10000*(gen+1)+i)); err != nil {
				t.Fatal(err)
			}
		}
		for _, it := range items[gen*150 : (gen+1)*150] {
			if ok, err := fork.Delete(it.Point, it.RecordID); err != nil || !ok {
				t.Fatalf("gen %d delete of record %d: %v, %v", gen, it.RecordID, ok, err)
			}
		}
		if _, err := fork.Fork(fork.store.Clone()); err == nil {
			t.Fatal("a tree with unfinalized changes forked")
		}
		if err := fork.Finalize(); err != nil {
			t.Fatal(err)
		}
		if len(fork.dirty) != 0 {
			t.Fatalf("gen %d: %d nodes still dirty after Finalize", gen, len(fork.dirty))
		}
		if err := fork.CheckInvariants(); err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
		if want := int64(600); fork.Size() != want {
			t.Fatalf("gen %d: size %d, want %d", gen, fork.Size(), want)
		}
		// Every finalized node is the one a load decodes from its page.
		err = fork.store.ForEachPage(func(id pager.PageID, data []byte) error {
			var want Node
			if err := want.decode(id, data); err != nil {
				return err
			}
			if !sameNode(fork.cache[id], &want) {
				t.Fatalf("gen %d: cached node %d differs from its page", gen, id)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		cur = fork
	}

	if err := parent.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	after := 0
	store.ForEachPage(func(id pager.PageID, data []byte) error {
		after++
		if !bytes.Equal(before[id], data) {
			t.Fatalf("parent page %d changed under its forks", id)
		}
		var want Node
		if err := want.decode(id, data); err != nil {
			return err
		}
		if !sameNode(parent.cache[id], &want) {
			t.Fatalf("parent node %d changed under its forks", id)
		}
		return nil
	})
	if after != len(before) {
		t.Fatalf("parent holds %d pages after forking, %d before", after, len(before))
	}
	n, err := parent.Reader(nil).RangeCount(everything(2))
	if err != nil || n != 600 {
		t.Fatalf("parent counts %d records (%v), want 600", n, err)
	}
}

// countsDownOnly reports whether deleting p from the leaf ending path can
// leave every bound as it is: no node below the root goes underfull, and p
// lies strictly inside its leaf's entry on every axis. A re-scan folds
// entries keeping the first of equal bounds, and p equals no bound, so the
// leaf's other entries fold to the same bits, and so does each ancestor.
func countsDownOnly(t *Tree, path []pager.PageID, p vecmath.Point) bool {
	if len(path) < 2 {
		return false
	}
	for i, id := range path[1:] {
		n := t.peek(id)
		left := n.Len()
		if i == len(path)-2 {
			left-- // the leaf loses the deleted entry
		}
		if left < t.minEntriesFor(n) {
			return false
		}
	}
	parent := t.peek(path[len(path)-2])
	b := parent.rect(parent.childIndex(path[len(path)-1]))
	for k, v := range p {
		if !(b.Lo[k] < v && v < b.Hi[k]) {
			return false
		}
	}
	return true
}

// deleteCountingDown deletes as Delete does, except that when
// countsDownOnly holds it re-scans nothing: it removes the entry and takes
// one from each count on the path. It reports whether it took that path.
func deleteCountingDown(t *Tree, p vecmath.Point, recordID int64) (counted, ok bool) {
	var buf [pathCap]pager.PageID
	path, idx := t.findLeaf(t.root, p, recordID, buf[:0])
	if path == nil {
		return false, false
	}
	if !countsDownOnly(t, path, p) {
		ok, err := t.Delete(p, recordID)
		return false, ok && err == nil
	}
	t.node(path[len(path)-1]).remove(idx)
	t.size--
	for i := len(path) - 2; i >= 0; i-- {
		parent := t.node(path[i])
		parent.counts[parent.childIndex(path[i+1])]--
	}
	return true, true
}

// TestCondenseMatchesRescan: wherever countsDownOnly holds, Delete's re-scan
// leaves every node bit for bit as deleteCountingDown does by only counting
// the path down, so such a delete could skip the re-scan. Points lie on a
// 1/64 grid with one coordinate in eight ±0 and one insert in four a live
// point's duplicate, so deleted points often lie on their leaf's boundary or
// equal a bound but for its zero's sign; deletes outnumber inserts, so nodes
// also go underfull.
func TestCondenseMatchesRescan(t *testing.T) {
	for _, d := range []int{2, 3} {
		rng := rand.New(rand.NewSource(int64(49 + d)))
		point := func() vecmath.Point {
			p := make(vecmath.Point, d)
			for k := range p {
				p[k] = float64(rng.Intn(65)) / 64
				if rng.Intn(8) == 0 {
					p[k] = math.Copysign(0, float64(rng.Intn(2)*2-1))
				}
			}
			return p
		}
		type rec struct {
			p  vecmath.Point
			id int64
		}
		var live []rec
		for i := range 1500 {
			live = append(live, rec{point(), int64(i)})
		}
		pts := make([]vecmath.Point, len(live))
		for i, r := range live {
			pts[i] = r.p
		}
		var trees [2]*Tree
		for k := range trees {
			tree, err := New(pager.NewStore(512), d, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := tree.BulkLoad(pts, nil); err != nil {
				t.Fatal(err)
			}
			if err := tree.Finalize(); err != nil {
				t.Fatal(err)
			}
			trees[k] = tree
		}
		got, want := trees[0], trees[1]
		kept, rescanned := 0, 0
		for op := 0; op < 3000 && len(live) > 1; op++ {
			if rng.Intn(3) == 0 {
				p := point()
				if rng.Intn(4) == 0 {
					p = live[rng.Intn(len(live))].p.Clone()
				}
				id := int64(1500 + op)
				if err := got.Insert(p, id); err != nil {
					t.Fatal(err)
				}
				if err := want.Insert(p.Clone(), id); err != nil {
					t.Fatal(err)
				}
				live = append(live, rec{p, id})
			} else {
				k := rng.Intn(len(live))
				r := live[k]
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				keep, ok := deleteCountingDown(got, r.p, r.id)
				if !ok {
					t.Fatalf("d=%d: counting-down delete of record %d missed", d, r.id)
				}
				if ok, err := want.Delete(r.p, r.id); err != nil || !ok {
					t.Fatalf("d=%d: delete of record %d: %v, %v", d, r.id, ok, err)
				}
				if keep {
					kept++
				} else {
					rescanned++
				}
			}
			if got.root != want.root || got.height != want.height || got.size != want.size || len(got.cache) != len(want.cache) {
				t.Fatalf("d=%d op %d: root %d height %d size %d over %d nodes, Delete's %d %d %d over %d",
					d, op, got.root, got.height, got.size, len(got.cache), want.root, want.height, want.size, len(want.cache))
			}
			for id, n := range got.cache {
				if !sameNode(n, want.cache[id]) {
					t.Fatalf("d=%d op %d: node %d differs from Delete's re-scan", d, op, id)
				}
			}
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		t.Logf("d=%d: %d deletes counted down, %d re-scanned", d, kept, rescanned)
		if kept < 200 || rescanned < 200 {
			t.Fatalf("d=%d: %d deletes counted down and %d re-scanned; the test wants many of each", d, kept, rescanned)
		}
	}
}

// TestFinalizeAllocatesOnlyPages: Finalize of k dirty nodes makes k
// allocations, each node's page, which the store keeps as encode made it.
func TestFinalizeAllocatesOnlyPages(t *testing.T) {
	parent, _ := finalizedTree(t, 600, 2, Options{})
	var items []Item
	err := parent.Reader(nil).RangeSearch(everything(2), func(it Item) bool {
		items = append(items, Item{Point: it.Point.Clone(), RecordID: it.RecordID})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(49))
	for batch := range 4 {
		fork, err := parent.Fork(parent.store.Clone())
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range randomPoints(rng, 20*batch+1, 2) {
			if err := fork.Insert(p, int64(10000+i)); err != nil {
				t.Fatal(err)
			}
		}
		for _, it := range items[batch*20 : batch*20+10*batch] {
			if ok, err := fork.Delete(it.Point, it.RecordID); err != nil || !ok {
				t.Fatalf("delete of record %d: %v, %v", it.RecordID, ok, err)
			}
		}
		k := len(fork.dirty)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = fork.Finalize()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := after.Mallocs - before.Mallocs; got != uint64(k) {
			t.Errorf("batch %d: Finalize of %d dirty nodes made %d allocations", batch, k, got)
		}
	}
}

// BenchmarkInsert measures the index half of one mutate_cycle batch: on a
// fork of a bulk-loaded IND n = 100 000, d = 2 tree over 4 KiB pages, 32
// inserts of uniform points, 32 deletes of random records and a Finalize.
// Every batch starts from the same parent, so each one does the same work;
// ns/op and allocs/op are per batch.
func BenchmarkInsert(b *testing.B) {
	const n, d = 100000, 2
	store := pager.NewStore(4096)
	tree, err := New(store, d, Options{})
	if err != nil {
		b.Fatal(err)
	}
	pts := dataset.Generate(dataset.IND, n, d, 1)
	if err := tree.BulkLoad(pts, nil); err != nil {
		b.Fatal(err)
	}
	if err := tree.Finalize(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	inserts := randomPoints(rng, 32, d)
	deletes := rng.Perm(n)[:32]
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		fork, err := tree.Fork(store.Clone())
		if err != nil {
			b.Fatal(err)
		}
		for i, p := range inserts {
			if err := fork.Insert(p, int64(n+i)); err != nil {
				b.Fatal(err)
			}
		}
		for _, i := range deletes {
			if ok, err := fork.Delete(pts[i], int64(i)); err != nil || !ok {
				b.Fatalf("delete of record %d: %v, %v", i, ok, err)
			}
		}
		if err := fork.Finalize(); err != nil {
			b.Fatal(err)
		}
	}
}
