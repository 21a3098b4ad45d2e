package quadtree

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/vecmath"
)

// insertEager is Insert without deferral: the half-space is threaded at
// once to every leaf it overlaps, and a leaf that overflows is split at
// once, recursively, as the tree did before it deferred pushes and splits.
// It is the reference the lazy tree is held to.
func (t *Tree) insertEager(ref *HalfspaceRef) {
	idx := len(t.refs)
	t.refs = append(t.refs, ref)
	t.byRecord[ref.RecordID] = idx
	t.coef, t.neg = grow(t.coef, t.dr+1), grow(t.neg, 1)
	c, _ := t.halfspace(idx)
	var neg uint32
	for i := 0; i < t.dr; i++ {
		c[i] = ref.H.A[i]
		if !(c[i] >= 0) {
			neg |= 1 << uint(i)
		}
	}
	c[t.dr], t.neg[idx] = ref.H.B, neg
	switch classify(c, neg, t.box(0)) {
	case geom.BoxInside:
		t.push(&t.nodes[0].full, idx)
	case geom.BoxPartial:
		t.insertAtEager(0, idx, c, neg, 0)
	}
}

func (t *Tree) insertAtEager(ni int32, idx int, c []float64, neg uint32, inheritedFull int) {
	n := &t.nodes[ni]
	if n.child < 0 {
		t.push(&n.partial, idx)
		n.version++
		if int(n.partial.n) > t.maxPartial && int(n.depth) < t.maxDepth &&
			(t.splitBound < 0 || inheritedFull+int(n.full.n) <= t.splitBound) {
			n.owed = n.partial.n
			t.splitEager(ni)
		}
		return
	}
	inheritedFull += int(n.full.n)
	first, k, off := int(n.child), 1<<uint(t.dr), len(t.rel)
	t.rel = slices.Grow(t.rel, k)[:off+k]
	t.childRelations(c, neg, t.box(int(ni)), t.rel[off:], 1)
	for mask := range k {
		child := t.children[first+mask]
		if child < 0 {
			continue
		}
		switch t.rel[off+mask] {
		case geom.BoxInside:
			t.push(&t.nodes[child].full, idx)
		case geom.BoxPartial:
			t.insertAtEager(child, idx, c, neg, inheritedFull)
		}
	}
	t.rel = t.rel[:off]
}

// splitEager carves node ni, which owes a split, and every descendant
// that comes to owe one.
func (t *Tree) splitEager(ni int32) {
	t.carve(ni)
	first, k := int(t.nodes[ni].child), 1<<uint(t.dr)
	for _, c := range t.children[first : first+k] {
		if c >= 0 && t.nodes[c].owed > 0 {
			t.splitEager(c)
		}
	}
}

// sameTree walks two trees from the root and reports the first difference
// node for node: ID, depth, which children exist, box, and the full and
// partial lists' contents in order. Versions may differ, and so may the
// order in which the nodes were carved into the arena.
func sameTree(got, want *Tree) error {
	var walk func(g, w int32) error
	walk = func(g, w int32) error {
		gn, wn := &got.nodes[g], &want.nodes[w]
		switch {
		case gn.id != wn.id || gn.depth != wn.depth || gn.owed != wn.owed || (gn.child < 0) != (wn.child < 0):
			return fmt.Errorf("node %d at depth %d, owing %d, carved %v; want node %d at %d, %d, %v",
				gn.id, gn.depth, gn.owed, gn.child >= 0, wn.id, wn.depth, wn.owed, wn.child >= 0)
		case !slices.Equal(got.box(int(g)), want.box(int(w))):
			return fmt.Errorf("node %d: box %v, want %v", gn.id, got.box(int(g)), want.box(int(w)))
		case !slices.Equal(got.list(gn.full), want.list(wn.full)):
			return fmt.Errorf("node %d: full %v, want %v", gn.id, got.list(gn.full), want.list(wn.full))
		case !slices.Equal(got.list(gn.partial), want.list(wn.partial)):
			return fmt.Errorf("node %d: partial %v, want %v", gn.id, got.list(gn.partial), want.list(wn.partial))
		case gn.child < 0:
			return nil
		}
		k := 1 << uint(got.dr)
		for mask := range k {
			gc, wc := got.children[int(gn.child)+mask], want.children[int(wn.child)+mask]
			if (gc < 0) != (wc < 0) {
				return fmt.Errorf("node %d: child %d exists in one tree only", gn.id, mask)
			}
			if gc >= 0 {
				if err := walk(gc, wc); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return walk(0, 0)
}

// TestLazyMatchesEager threads random half-spaces into a lazy tree and an
// eager reference side by side, changing the split bound along the way
// (raised, lowered, reset to unlimited), and between inserts scans a
// random part of the lazy tree through a Frontier, as AA does, so that
// some pending lists settle and some owed splits are carved early and
// others later. Once settled, the two trees must agree node for node.
// Each case must have deferred a push and a split.
func TestLazyMatchesEager(t *testing.T) {
	for dr := 1; dr <= 4; dr++ {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(100*int64(dr) + seed))
			opts := Options{MaxPartial: 2 + rng.Intn(4), MaxDepth: []int{0, 3, 8}[rng.Intn(3)]}
			lazy, err := New(dr, opts)
			if err != nil {
				t.Fatal(err)
			}
			eager, _ := New(dr, opts)
			var f Frontier
			deferred, owed := 0, 0
			n := []int{150, 120, 70, 45}[dr-1]
			firstScan := int(seed%2) * n / 2 // odd seeds join owed split lists longer
			for i := 0; i < n; i++ {
				if rng.Intn(10) == 0 {
					b := []int{-1, 0, 1, 2, 3, 5, 8}[rng.Intn(7)]
					lazy.SetSplitBound(b)
					eager.SetSplitBound(b)
				}
				if rng.Intn(4) == 0 && i >= firstScan {
					f.Reset(lazy)
					limit := rng.Intn(6)
					for _, ok := f.Next(limit); ok && rng.Intn(8) != 0; _, ok = f.Next(limit) {
					}
				}
				h := randomHalfspace(rng, dr)
				lazy.Insert(&HalfspaceRef{H: h, RecordID: int64(i)})
				eager.insertEager(&HalfspaceRef{H: h, RecordID: int64(i)})
				for _, nd := range lazy.nodes {
					if nd.child >= 0 || nd.owed > 0 {
						deferred += int(nd.partial.n - nd.owed)
					}
					owed += min(int(nd.owed), 1)
				}
			}
			lazy.settleAll()
			if err := sameTree(lazy, eager); err != nil {
				t.Fatalf("dr=%d seed %d (%+v): settled lazy tree differs from the eager one: %v", dr, seed, opts, err)
			}
			if deferred == 0 || owed == 0 {
				t.Errorf("dr=%d seed %d: %d pushes and %d splits deferred", dr, seed, deferred, owed)
			}
		}
	}
}

// sameLeaf reports whether two leaves hand their enumerations the same:
// NodeID and Version, which seed its sampling, box, and full and partial
// lists.
func sameLeaf(a, b Leaf) bool {
	return a.NodeID() == b.NodeID() && a.Version() == b.Version() && slices.Equal(a.t.box(int(a.n)), b.t.box(int(b.n))) &&
		slices.Equal(a.Full(), b.Full()) && slices.Equal(a.Partial(), b.Partial())
}

func leafKey(l Leaf) string {
	return fmt.Sprintf("%d v%d %v-%v full %v partial %v", l.NodeID(), l.Version(), l.Box().Lo, l.Box().Hi, l.Full(), l.Partial())
}

// TestOpeningOrderInvisible gives two trees the same inserts, split bounds
// and scan points. At each scan point one is opened by a Frontier scan to
// a random limit, stopped at random, and the other by Leaves. Every leaf
// the scan hands out must be the leaf of that NodeID that Leaves hands
// out, and once both are settled every leaf must be the same in both. So
// a replay over Leaves repeats the enumerations, seeds included, of a
// query that scanned.
func TestOpeningOrderInvisible(t *testing.T) {
	handed, owing := 0, 0
	for dr := 1; dr <= 4; dr++ {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(300*int64(dr) + seed))
			opts := Options{MaxPartial: 2 + rng.Intn(4), MaxDepth: []int{0, 3, 8}[rng.Intn(3)]}
			scanned, err := New(dr, opts)
			if err != nil {
				t.Fatal(err)
			}
			settled, _ := New(dr, opts)
			var f Frontier
			n := []int{150, 120, 70, 45}[dr-1]
			for i := 0; i < n; i++ {
				if rng.Intn(10) == 0 {
					b := []int{-1, 0, 1, 2, 3, 5, 8}[rng.Intn(7)]
					scanned.SetSplitBound(b)
					settled.SetSplitBound(b)
				}
				if i > 0 && rng.Intn(6) == 0 {
					byID := map[int]Leaf{}
					for _, l := range settled.Leaves() {
						byID[l.NodeID()] = l
					}
					f.Reset(scanned)
					limit := rng.Intn(12) - 1
					for l, ok := f.Next(limit); ok && rng.Intn(40) != 0; l, ok = f.Next(limit) {
						want, ok := byID[l.NodeID()]
						if !ok {
							t.Fatalf("dr=%d seed %d insert %d: the scan hands out %s, which Leaves has not", dr, seed, i, leafKey(l))
						}
						if !sameLeaf(l, want) {
							t.Fatalf("dr=%d seed %d insert %d: the scan hands out\n %s\nLeaves has\n %s", dr, seed, i, leafKey(l), leafKey(want))
						}
						handed++
					}
					for _, nd := range scanned.nodes {
						owing += min(int(nd.owed), 1)
					}
				}
				h := randomHalfspace(rng, dr)
				scanned.Insert(&HalfspaceRef{H: h, RecordID: int64(i)})
				settled.Insert(&HalfspaceRef{H: h, RecordID: int64(i)})
			}
			got, want := scanned.Leaves(), settled.Leaves()
			if len(got) != len(want) {
				t.Fatalf("dr=%d seed %d: %d leaves, want %d", dr, seed, len(got), len(want))
			}
			for i := range got {
				if !sameLeaf(got[i], want[i]) {
					t.Fatalf("dr=%d seed %d: leaf %d is\n %s\nwant\n %s", dr, seed, i, leafKey(got[i]), leafKey(want[i]))
				}
			}
		}
	}
	t.Logf("%d leaves handed out, %d splits left owed by scans", handed, owing)
	if handed < 1000 || owing < 100 {
		t.Fatalf("%d leaves handed out, %d splits left owed by scans: the property was hardly exercised", handed, owing)
	}
}

// scanOrder drains a Frontier over t with the given limit.
func scanOrder(t *Tree, limit int) []Leaf {
	var f Frontier
	f.Reset(t)
	var out []Leaf
	for l, ok := f.Next(limit); ok; l, ok = f.Next(limit) {
		out = append(out, l)
	}
	return out
}

// sortedLeaves returns Leaves stably sorted by FullCount, keeping
// those with FullCount <= limit (negative: all).
func sortedLeaves(t *Tree, limit int) []Leaf {
	leaves := t.Leaves()
	slices.SortStableFunc(leaves, func(a, b Leaf) int { return a.FullCount() - b.FullCount() })
	if limit >= 0 {
		leaves = slices.DeleteFunc(leaves, func(l Leaf) bool { return l.FullCount() > limit })
	}
	return leaves
}

func render(l Leaf) string {
	return fmt.Sprintf("%d/%d/%d/%v", l.NodeID(), l.FullCount(), l.Version(), l.Partial())
}

// commonDepth returns the depth of the lowest common ancestor of two
// leaves.
func commonDepth(a, b Leaf) int {
	t, x, y := a.t, a.n, b.n
	for x != y {
		if t.nodes[x].depth >= t.nodes[y].depth {
			x = t.nodes[x].parent
		} else {
			y = t.nodes[y].parent
		}
	}
	return int(t.nodes[x].depth)
}

// clusteredHalfspace returns a half-space whose boundary passes within
// about 1e-13 of p, so that leaves near p split far past the depth at which
// a depth-first path of dr bits a level still fits in 64 bits.
func clusteredHalfspace(rng *rand.Rand, p vecmath.Point) geom.Halfspace {
	a := make(vecmath.Point, len(p))
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	return geom.Halfspace{A: a, B: a.Dot(p) + 1e-13*rng.NormFloat64()}
}

// TestFrontierOrder holds the Frontier to Leaves stably sorted by
// FullCount, ties included, on lazy trees with pending lists left in them,
// with and without a limit; and on trees deep enough that dr·depth > 64,
// with ties between leaves whose paths agree on more than 64 bits, where
// the depth-first tie-break cannot be a 64-bit path key.
func TestFrontierOrder(t *testing.T) {
	ties, deepTies := 0, 0
	check := func(name string, build func() *Tree, limit int) {
		t.Helper()
		got, want := scanOrder(build(), limit), sortedLeaves(build(), limit)
		for i := range min(len(got), len(want)) {
			if render(got[i]) != render(want[i]) {
				t.Fatalf("%s limit %d: leaf %d of the scan is %s, want %s", name, limit, i, render(got[i]), render(want[i]))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s limit %d: the scan hands out %d leaves, want %d", name, limit, len(got), len(want))
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].FullCount() == got[i].FullCount() {
				ties++
				if got[i].t.dr*(commonDepth(got[i-1], got[i])+1) > 64 {
					deepTies++
				}
			}
		}
	}
	for dr := 1; dr <= 4; dr++ {
		for seed := int64(0); seed < 6; seed++ {
			build := func() *Tree {
				rng := rand.New(rand.NewSource(200*int64(dr) + seed))
				qt, _ := New(dr, Options{MaxPartial: 3})
				for i := 0; i < []int{120, 90, 50, 30}[dr-1]; i++ {
					if i == 20 {
						qt.SetSplitBound(1 + int(seed%3))
					}
					qt.Insert(&HalfspaceRef{H: randomHalfspace(rng, dr), RecordID: int64(i)})
				}
				return qt
			}
			for _, limit := range []int{-1, 0, 2, 5} {
				check(fmt.Sprintf("dr=%d seed %d", dr, seed), build, limit)
			}
		}
	}
	for _, c := range []struct{ dr, maxDepth, n int }{{1, 200, 8}, {2, 80, 8}, {3, 40, 6}} {
		build := func() *Tree {
			rng := rand.New(rand.NewSource(int64(c.dr)))
			p := randSimplex(rng, c.dr)
			qt, _ := New(c.dr, Options{MaxPartial: 2, MaxDepth: c.maxDepth})
			for i := 0; i < c.n; i++ {
				qt.Insert(&HalfspaceRef{H: clusteredHalfspace(rng, p), RecordID: int64(i)})
			}
			return qt
		}
		check(fmt.Sprintf("deep dr=%d", c.dr), build, -1)
	}
	t.Logf("%d ties, %d past 64 bits of path", ties, deepTies)
	if ties < 100 || deepTies < 10 {
		t.Fatalf("%d ties, %d past 64 bits of path: the depth-first tie-break was hardly exercised", ties, deepTies)
	}
}
