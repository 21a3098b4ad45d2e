package quadtree

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/vecmath"
)

func randomHalfspace(rng *rand.Rand, dr int) geom.Halfspace {
	a := make(vecmath.Point, dr)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	return geom.Halfspace{A: a, B: rng.NormFloat64() * 0.3}
}

func TestLeavesPartitionAndClassification(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dr := range []int{1, 2, 3} {
		qt, err := New(dr, Options{MaxPartial: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			qt.Insert(&HalfspaceRef{H: randomHalfspace(rng, dr), RecordID: int64(i)})
		}
		leaves := qt.Leaves()
		if len(leaves) == 0 {
			t.Fatal("no leaves")
		}
		// Random interior simplex points: each must land in exactly one
		// leaf, and the leaf's Full/Partial bookkeeping must agree with
		// direct half-space classification.
		for trial := 0; trial < 300; trial++ {
			q := randSimplex(rng, dr)
			holder := -1
			for li, leaf := range leaves {
				if leaf.Box().Contains(q) {
					if holder >= 0 {
						// Boundaries are shared between neighbours; skip
						// ambiguous points.
						holder = -2
						break
					}
					holder = li
				}
			}
			if holder < 0 {
				continue
			}
			leaf := leaves[holder]
			inFull := map[int]bool{}
			for _, idx := range leaf.Full() {
				inFull[idx] = true
			}
			if len(inFull) != leaf.FullCount() {
				t.Fatalf("FullCount %d != len(Full()) %d", leaf.FullCount(), len(inFull))
			}
			inPartial := map[int]bool{}
			for _, idx := range leaf.Partial() {
				inPartial[idx] = true
			}
			for i := 0; i < qt.NumHalfspaces(); i++ {
				h := qt.Ref(i).H
				contains := h.Contains(q)
				switch {
				case inFull[i] && !contains:
					// Full containment is closed; only a tolerance sliver
					// may disagree.
					if h.A.Dot(q)-h.B < -1e-9 {
						t.Fatalf("half-space %d in Full but point %v clearly outside", i, q)
					}
				case !inFull[i] && !inPartial[i] && contains:
					if h.A.Dot(q)-h.B > 1e-9 {
						t.Fatalf("half-space %d absent from leaf but contains %v", i, q)
					}
				}
			}
		}
	}
}

func randSimplex(rng *rand.Rand, dr int) vecmath.Point {
	for {
		q := make(vecmath.Point, dr)
		var sum float64
		for i := range q {
			q[i] = rng.Float64()
			sum += q[i]
		}
		if sum < 1 {
			return q
		}
	}
}

func TestSplitThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	qt, err := New(2, Options{MaxPartial: 5, MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		qt.Insert(&HalfspaceRef{H: randomHalfspace(rng, 2), RecordID: int64(i)})
	}
	st := qt.Stats()
	if st.Leaves < 10 {
		t.Fatalf("expected splits, got %d leaves", st.Leaves)
	}
	// Leaves below the depth cap must respect the partial threshold.
	for _, leaf := range qt.Leaves() {
		if len(leaf.Partial()) > 5 && leafDepth(leaf) < 10 {
			t.Fatalf("leaf with %d partial half-spaces below depth cap", len(leaf.Partial()))
		}
	}
}

func leafDepth(l Leaf) int {
	// Depth can be derived from the box side (root is the unit cube and
	// every split halves each side).
	side := l.Box().Hi[0] - l.Box().Lo[0]
	depth := 0
	for side < 0.999 {
		side *= 2
		depth++
	}
	return depth
}

func TestSimplexPruning(t *testing.T) {
	qt, err := New(2, Options{MaxPartial: 1, MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		qt.Insert(&HalfspaceRef{H: randomHalfspace(rng, 2), RecordID: int64(i)})
	}
	// No live leaf may lie entirely outside the simplex.
	for _, leaf := range qt.Leaves() {
		var loSum float64
		for _, v := range leaf.Box().Lo {
			loSum += v
		}
		if loSum >= 1 {
			t.Fatalf("leaf %v entirely outside the domain simplex survived", leaf.Box())
		}
	}
}

func TestSplitBoundStopsRefinement(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	mk := func(bound int) int {
		qt, err := New(2, Options{MaxPartial: 4, MaxDepth: 9})
		if err != nil {
			t.Fatal(err)
		}
		qt.SetSplitBound(bound)
		// A pile of half-spaces all containing the lower-left corner region
		// builds up full-containment counts quickly.
		for i := 0; i < 120; i++ {
			qt.Insert(&HalfspaceRef{H: randomHalfspace(rng, 2), RecordID: int64(i)})
		}
		return qt.Stats().Leaves
	}
	unbounded := mk(-1)
	tight := mk(0)
	if tight >= unbounded {
		t.Fatalf("split bound did not reduce refinement: %d vs %d leaves", tight, unbounded)
	}
}

func TestRefByRecordAndVersioning(t *testing.T) {
	qt, err := New(2, Options{MaxPartial: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := geom.Halfspace{A: vecmath.Point{1, 0}, B: 0.4}
	qt.Insert(&HalfspaceRef{H: h, RecordID: 42, Augmented: true})
	ref, ok := qt.RefByRecord(42)
	if !ok || !ref.Augmented {
		t.Fatal("RefByRecord lookup failed")
	}
	ref.Augmented = false
	ref2, _ := qt.RefByRecord(42)
	if ref2.Augmented {
		t.Fatal("flag mutation not visible through the tree")
	}
	if _, ok := qt.RefByRecord(999); ok {
		t.Fatal("unknown record found")
	}

	leaves := qt.Leaves()
	v0 := leaves[0].Version()
	qt.Insert(&HalfspaceRef{H: geom.Halfspace{A: vecmath.Point{0, 1}, B: 0.3}, RecordID: 43})
	leaves = qt.Leaves()
	if leaves[0].Version() == v0 && leaves[0].NodeID() == 0 {
		t.Fatal("version did not change after a partial insert into the root leaf")
	}
}

func TestInvalidDimensions(t *testing.T) {
	if _, err := New(0, Options{}); err == nil {
		t.Fatal("dr=0 accepted")
	}
	if _, err := New(17, Options{}); err == nil {
		t.Fatal("dr=17 accepted")
	}
}

// TestClassifyMatchesGeom holds the arena's kernel to geom's definition on
// every node of random trees, with coefficients that are zero, negative
// zero and of mixed sign, where the per-axis corner choice matters.
func TestClassifyMatchesGeom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	special := []float64{0, math.Copysign(0, -1), 1, -1}
	for dr := 1; dr <= 5; dr++ {
		qt, err := New(dr, Options{MaxPartial: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			h := randomHalfspace(rng, dr)
			if i%3 == 0 {
				h.A[rng.Intn(dr)] = special[rng.Intn(len(special))]
			}
			qt.Insert(&HalfspaceRef{H: h, RecordID: int64(i)})
		}
		for ni := range qt.nodes {
			box := Leaf{t: qt, n: int32(ni)}.Box()
			for h := 0; h < qt.NumHalfspaces(); h++ {
				c, neg := qt.halfspace(h)
				if got, want := classify(c, neg, qt.box(ni)), qt.Ref(h).H.Classify(box); got != want {
					t.Fatalf("dr=%d node %d half-space %d: arena says %v, geom says %v", dr, ni, h, got, want)
				}
			}
		}
	}
}

// TestArenaOverflowIsAnError lowers the int32 limit until a small tree
// reaches it: Insert must not panic or wrap, Err must report it from then
// on, the tree must stay walkable, and a Reset must clear the error.
func TestArenaOverflowIsAnError(t *testing.T) {
	defer func(old int) { arenaLimit = old }(arenaLimit)
	rng := rand.New(rand.NewSource(8))
	for _, limit := range []int{40, 300, 2000} {
		arenaLimit = limit
		qt, err := New(2, Options{MaxPartial: 2})
		if err != nil {
			t.Fatal(err)
		}
		full := -1
		for i := 0; i < 400; i++ {
			if got := qt.Insert(&HalfspaceRef{H: randomHalfspace(rng, 2), RecordID: int64(i)}); got != i {
				t.Fatalf("limit %d: Insert %d returned index %d", limit, i, got)
			}
			if qt.Err() != nil && full < 0 {
				full = i
			}
			if qt.Err() == nil && full >= 0 {
				t.Fatalf("limit %d: Err cleared itself after insert %d", limit, i)
			}
		}
		if full < 0 {
			t.Fatalf("limit %d: 400 half-spaces never filled the arena", limit)
		}
		if len(qt.nodes) > limit || len(qt.children) > limit || len(qt.lists) > limit || len(qt.boxes) > limit || qt.nextNodeID > limit {
			t.Fatalf("limit %d: arena grew past it (%d nodes, %d child slots, %d list entries, %d box floats, next ID %d)",
				limit, len(qt.nodes), len(qt.children), len(qt.lists), len(qt.boxes), qt.nextNodeID)
		}
		for _, l := range qt.Leaves() { // incomplete, but still walkable
			if len(l.Full()) != l.FullCount() || l.Box().Dim() != 2 {
				t.Fatalf("limit %d: leaf %d is inconsistent after the overflow", limit, l.NodeID())
			}
			l.Partial()
		}
		arenaLimit = math.MaxInt32
		if err := qt.Reset(2, Options{}); err != nil || qt.Err() != nil {
			t.Fatalf("limit %d: Reset left the error behind: %v / %v", limit, err, qt.Err())
		}
	}
}

// TestConcurrentReadersShareOneArena has several readers walk one tree at
// once; under -race it shows that the handles only read.
func TestConcurrentReadersShareOneArena(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	qt, err := New(3, Options{MaxPartial: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		qt.Insert(&HalfspaceRef{H: randomHalfspace(rng, 3), RecordID: int64(i)})
	}
	want := dumpShape(qt)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := dumpShape(qt); got != want {
				t.Errorf("a concurrent reader saw a different tree\n%s", firstDiff(got, want))
			}
		}()
	}
	wg.Wait()
}
