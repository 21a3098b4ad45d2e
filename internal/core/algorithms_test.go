package core

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pager"
	"repro/internal/rstar"
	"repro/internal/vecmath"
)

// buildTree indexes points in a fresh store-backed R*-tree.
func buildTree(t testing.TB, points []vecmath.Point) *rstar.Tree {
	t.Helper()
	if len(points) == 0 {
		t.Fatal("buildTree: no points")
	}
	store := pager.NewStore(0)
	tree, err := rstar.New(store, len(points[0]), rstar.Options{})
	if err != nil {
		t.Fatalf("rstar.New: %v", err)
	}
	if err := tree.BulkLoad(points, nil); err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	if err := tree.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return tree
}

// mappedCopy serves the pages of a finalized heap tree through a read-only
// pager.Mapped source, as a snapshot loaded from a file is served: the same
// tree, decoding every page it reads.
func mappedCopy(t testing.TB, tree *rstar.Tree) *rstar.Tree {
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
	ro, err := rstar.RestoreFrom(src, tree.Dim(), tree.Root(), tree.Height(), tree.Size(), rstar.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ro
}

// directOrderAt computes the focal record's cell order (incomparable records
// scoring strictly above it) at a reduced-space query point.
func directOrderAt(points []vecmath.Point, focalIdx int, q vecmath.Point) int {
	full := vecmath.LiftQuery(q)
	focal := points[focalIdx]
	fs := focal.Dot(full)
	order := 0
	for i, r := range points {
		if i == focalIdx {
			continue
		}
		if vecmath.Compare(r, focal) != vecmath.Incomparable {
			continue
		}
		if r.Dot(full) > fs {
			order++
		}
	}
	return order
}

// regionsCover reports whether some region contains q (with tolerance).
func regionsCover(res *Result, q vecmath.Point) bool {
	const tol = 1e-9
	for _, reg := range res.Regions {
		if !boxContainsTol(reg.Box, q, tol) {
			continue
		}
		ok := true
		for _, h := range reg.Constraints {
			if h.A.Dot(q) < h.B-tol {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func boxContainsTol(box interface {
	Contains(vecmath.Point) bool
}, q vecmath.Point, _ float64) bool {
	return box.Contains(q)
}

// runAll checks every algorithm that supports the instance's dimension, on
// a heap tree and on a mapped copy of it, against the exact reference, and
// requires all of them to agree on k*.
func runAll(t *testing.T, points []vecmath.Point, focalIdx int, tau int) {
	t.Helper()
	_, answers := checkExactInstance(t, exactInstance{points: points, focal: points[focalIdx], focalIdx: focalIdx, tau: tau})
	base := answers["BA/heap"]
	for name, res := range answers {
		if res.KStar != base.KStar {
			t.Errorf("k* disagreement: %s=%d vs BA/heap=%d", name, res.KStar, base.KStar)
		}
	}
}

func TestAlgorithmsAgreeSmall2D(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		seed := int64(1000 + trial)
		points := dataset.Generate(dataset.IND, 30, 2, seed)
		runAll(t, points, trial%len(points), 0)
	}
}

func TestAlgorithmsAgreeSmall3D(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		seed := int64(2000 + trial)
		points := dataset.Generate(dataset.IND, 25, 3, seed)
		runAll(t, points, trial%len(points), 0)
	}
}

func TestAlgorithmsAgreeSmall4D(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		seed := int64(3000 + trial)
		points := dataset.Generate(dataset.IND, 18, 4, seed)
		runAll(t, points, trial%len(points), 0)
	}
}

func TestAlgorithmsAgreeTau(t *testing.T) {
	for _, tau := range []int{1, 2, 3} {
		for trial := 0; trial < 8; trial++ {
			seed := int64(4000 + trial + 100*tau)
			points := dataset.Generate(dataset.IND, 24, 3, seed)
			t.Run(fmt.Sprintf("tau=%d/trial=%d", tau, trial), func(t *testing.T) {
				runAll(t, points, trial%len(points), tau)
			})
		}
	}
}

func TestAlgorithmsAgreeDistributions(t *testing.T) {
	for _, dist := range []dataset.Distribution{dataset.COR, dataset.ANTI} {
		for trial := 0; trial < 8; trial++ {
			seed := int64(5000 + trial)
			points := dataset.Generate(dist, 25, 3, seed)
			t.Run(fmt.Sprintf("%v/trial=%d", dist, trial), func(t *testing.T) {
				runAll(t, points, trial%len(points), 0)
			})
		}
	}
}

func TestFocalNotInDataset(t *testing.T) {
	points := dataset.Generate(dataset.IND, 40, 3, 7)
	tree := buildTree(t, points)
	focal := vecmath.Point{0.55, 0.5, 0.45}
	in := Input{Tree: tree, Focal: focal, FocalID: -1}
	ref := exactReference(points, focal, -1, 0)
	for _, a := range []struct {
		name string
		run  func(Input) (*Result, error)
	}{{"BA", BA}, {"AA", AA}} {
		res, err := a.run(in)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		checkAgainstExact(t, a.name, res, ref, 0)
	}
}

func TestDominatedFocal(t *testing.T) {
	// A focal record dominated by many others: k* must exceed the number of
	// dominators.
	points := []vecmath.Point{
		{0.9, 0.9}, {0.8, 0.85}, {0.7, 0.75}, {0.2, 0.1},
		{0.15, 0.6}, {0.6, 0.15},
	}
	focalIdx := 3
	tree := buildTree(t, points)
	in := Input{Tree: tree, Focal: points[focalIdx], FocalID: int64(focalIdx)}
	res, err := AA(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dominators != 4 {
		// (0.9,0.9), (0.8,0.85), (0.7,0.75) and (0.6,0.15) all dominate p.
		t.Fatalf("dominators = %d, want 4", res.Dominators)
	}
	checkAgainstExact(t, "AA", res, exactReference(points, points[focalIdx], focalIdx, 0), 0)
}

func TestTopRecordFocal(t *testing.T) {
	// A focal record on the convex hull boundary must achieve k* = 1.
	points := []vecmath.Point{
		{0.95, 0.95}, {0.5, 0.5}, {0.2, 0.8}, {0.8, 0.2}, {0.3, 0.3},
	}
	tree := buildTree(t, points)
	in := Input{Tree: tree, Focal: points[0], FocalID: 0}
	for _, run := range []func(Input) (*Result, error){FCA, BA, AA, AA2D} {
		res, err := run(in)
		if err != nil {
			t.Fatal(err)
		}
		if res.KStar != 1 {
			t.Fatalf("k* = %d, want 1", res.KStar)
		}
	}
}

func TestPaperRunningExample(t *testing.T) {
	// Figure 1/2 of the paper: k* = 3, attained on q1 intervals (0, 0.2)
	// and (0.4, 0.6).
	points := []vecmath.Point{
		{0.8, 0.9}, // r1 — dominator
		{0.2, 0.7}, // r2
		{0.9, 0.4}, // r3
		{0.7, 0.2}, // r4
		{0.4, 0.3}, // r5 — dominee
		{0.5, 0.5}, // p
	}
	focalIdx := 5
	tree := buildTree(t, points)
	in := Input{Tree: tree, Focal: points[focalIdx], FocalID: int64(focalIdx)}
	for _, a := range []struct {
		name string
		run  func(Input) (*Result, error)
	}{{"FCA", FCA}, {"BA", BA}, {"AA2D", AA2D}} {
		res, err := a.run(in)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if res.KStar != 3 {
			t.Fatalf("%s: k* = %d, want 3", a.name, res.KStar)
		}
		if res.Dominators != 1 {
			t.Fatalf("%s: dominators = %d, want 1", a.name, res.Dominators)
		}
		if a.name == "BA" {
			// BA reports cells as constraint sets within quad-tree leaves;
			// witnesses must land in the paper's two intervals.
			for _, reg := range res.Regions {
				w := reg.Witness[0]
				if !(w > 0 && w < 0.2) && !(w > 0.4 && w < 0.6) {
					t.Fatalf("BA: witness %g outside (0,0.2) ∪ (0.4,0.6)", w)
				}
			}
			continue
		}
		if len(res.Regions) != 2 {
			t.Fatalf("%s: |T| = %d, want 2 (%v)", a.name, len(res.Regions), res.Regions)
		}
		// The two intervals are (0, 0.2) and (0.4, 0.6).
		var los, his []float64
		for _, reg := range res.Regions {
			los = append(los, reg.Box.Lo[0])
			his = append(his, reg.Box.Hi[0])
		}
		assertIntervalSet(t, a.name, los, his, [][2]float64{{0, 0.2}, {0.4, 0.6}})
	}
}

func assertIntervalSet(t *testing.T, name string, los, his []float64, want [][2]float64) {
	t.Helper()
	const tol = 1e-9
	if len(los) != len(want) {
		t.Fatalf("%s: %d intervals, want %d", name, len(los), len(want))
	}
	for _, w := range want {
		found := false
		for i := range los {
			if abs(los[i]-w[0]) < tol && abs(his[i]-w[1]) < tol {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%s: interval [%g,%g] not reported (got lo=%v hi=%v)", name, w[0], w[1], los, his)
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
