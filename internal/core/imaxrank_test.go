package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vecmath"
)

// TestIMaxRankBandCoverage validates iMaxRank on instances too large for
// the exact reference: every region witness must have its claimed order, the
// band [k*, k*+τ] must be fully covered (checked by sampling), and growing
// τ must only add regions.
func TestIMaxRankBandCoverage(t *testing.T) {
	points := dataset.Generate(dataset.IND, 120, 3, 77)
	tree := buildTree(t, points)
	focalIdx := 17
	prevRegions := -1
	for _, tau := range []int{0, 1, 2, 4} {
		in := Input{Tree: tree, Focal: points[focalIdx], FocalID: int64(focalIdx), Tau: tau}
		res, err := AA(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Regions) <= prevRegions {
			// Strictly larger is not guaranteed (a band may be empty), but
			// fewer regions than a smaller τ is impossible.
			if len(res.Regions) < prevRegions {
				t.Fatalf("tau=%d: %d regions, fewer than smaller tau's %d",
					tau, len(res.Regions), prevRegions)
			}
		}
		prevRegions = len(res.Regions)
		for i, reg := range res.Regions {
			got := directOrderAt(points, focalIdx, reg.Witness)
			if got != reg.Order {
				t.Fatalf("tau=%d region %d: witness order %d != %d", tau, i, got, reg.Order)
			}
			if reg.Order < res.MinOrder || reg.Order > res.MinOrder+tau {
				t.Fatalf("tau=%d region %d: order %d outside band", tau, i, reg.Order)
			}
		}
		// Sampled coverage of the band.
		rng := rand.New(rand.NewSource(int64(1000 + tau)))
		for s := 0; s < 400; s++ {
			q := randomSimplexInterior(rng, 2)
			order := directOrderAt(points, focalIdx, q)
			if order > res.MinOrder+tau || nearBoundary(points, focalIdx, q, 1e-7) {
				continue
			}
			covered := false
			for _, reg := range res.Regions {
				if !reg.Box.Contains(q) {
					continue
				}
				ok := true
				for _, h := range reg.Constraints {
					if h.A.Dot(q) < h.B-1e-9 {
						ok = false
						break
					}
				}
				if ok {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("tau=%d: band point %v (order %d) uncovered", tau, q, order)
			}
		}
	}
}

// nearBoundary reports whether q is within eps of any record's hyperplane
// or a domain facet in the reduced space.
func nearBoundary(points []vecmath.Point, focalIdx int, q vecmath.Point, eps float64) bool {
	focal := points[focalIdx]
	var sum float64
	for _, v := range q {
		if v < eps {
			return true
		}
		sum += v
	}
	if sum > 1-eps {
		return true
	}
	full := vecmath.LiftQuery(q)
	fs := focal.Dot(full)
	for i, r := range points {
		if i == focalIdx || vecmath.Compare(r, focal) != vecmath.Incomparable {
			continue
		}
		if diff := r.Dot(full) - fs; diff > -eps && diff < eps {
			return true
		}
	}
	return false
}

// randomSimplexInterior draws a point uniformly from the open simplex
// {q_i > 0, Σ q_i < 1} via exponential spacings.
func randomSimplexInterior(rng *rand.Rand, dr int) vecmath.Point {
	w := make([]float64, dr+1)
	var sum float64
	for i := range w {
		w[i] = rng.ExpFloat64() + 1e-12
		sum += w[i]
	}
	q := make(vecmath.Point, dr)
	for i := 0; i < dr; i++ {
		q[i] = w[i] / sum
	}
	return q
}

func TestInputValidation(t *testing.T) {
	points := dataset.Generate(dataset.IND, 30, 3, 1)
	tree := buildTree(t, points)
	cases := []Input{
		{Tree: nil, Focal: points[0]},
		{Tree: tree, Focal: vecmath.Point{0.5}},
		{Tree: tree, Focal: points[0], Tau: -1},
	}
	for i, in := range cases {
		if err := in.Validate(); err == nil {
			t.Errorf("case %d: invalid input accepted", i)
		}
	}
	if _, err := FCA(Input{Tree: tree, Focal: points[0]}); err == nil {
		t.Error("FCA accepted d=3")
	}
	if _, err := AA2D(Input{Tree: tree, Focal: points[0]}); err == nil {
		t.Error("AA2D accepted d=3")
	}
}

// TestTruncatedLeafFailsQuery: a leaf whose enumeration hits the candidate
// limit may have left out a cell of lower order than the best found, so BA
// and AA fail with ErrLeafTruncated rather than answer a k* that could be
// too high — and answer at the default limit.
func TestTruncatedLeafFailsQuery(t *testing.T) {
	points := dataset.Generate(dataset.IND, 100, 3, 5)
	tree := buildTree(t, points)
	in := Input{Tree: tree, Focal: points[2], FocalID: 2}
	for _, alg := range []Algorithm{StrategyBA, StrategyAA} {
		candidateLimit = 1
		_, err := alg.Run(in)
		candidateLimit = 0
		if !errors.Is(err, ErrLeafTruncated) {
			t.Fatalf("%s with a candidate limit of 1: error %v, want ErrLeafTruncated", alg.Name(), err)
		}
		if _, err := alg.Run(in); err != nil {
			t.Fatalf("%s at the default limit: %v", alg.Name(), err)
		}
	}
}

// TestLeftOutCellIsExpanded: at IND n = 2000, d = 3, focal 14, AA's last
// iteration has a leaf truncated at the default limit that holds a cell
// below the answer's order, covered by augmented half-spaces. AA expands
// them like any inaccurate candidate's and answers BA's k*.
func TestLeftOutCellIsExpanded(t *testing.T) {
	points := dataset.Generate(dataset.IND, 2000, 3, 1)
	in := Input{Tree: buildTree(t, points), Focal: points[14], FocalID: 14}
	aa, err := AA(in)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := BA(in)
	if err != nil {
		t.Fatal(err)
	}
	if aa.KStar != ba.KStar {
		t.Fatalf("AA k* = %d, BA k* = %d", aa.KStar, ba.KStar)
	}
}

// TestLPCallsCountEverySolve: Stats.LPCalls is the number of simplex
// solves the query ran, read at the solver. The query is
// TestLeftOutCellIsExpanded's, whose AA searches a truncated leaf for a
// left-out cell (findCell) before it answers; leaving out that search's
// solves, as the count once did, misses 987 of 275 258.
func TestLPCallsCountEverySolve(t *testing.T) {
	points := dataset.Generate(dataset.IND, 2000, 3, 1)
	in := Input{Tree: buildTree(t, points), Focal: points[14], FocalID: 14}

	// Run on a fresh state, so its solver has counted this query alone.
	freeStates.Lock()
	saved := freeStates.list
	freeStates.list = nil
	freeStates.Unlock()
	var solves int64
	releaseHook = func(st *execState) {
		// The count sits unexported in Enumerator.feas.solver.
		solves = reflect.ValueOf(&st.enum).Elem().FieldByName("feas").FieldByName("solver").FieldByName("solves").Int()
	}
	res, err := AA(in)
	releaseHook = nil
	freeStates.Lock()
	freeStates.list = saved
	freeStates.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.LPCalls != solves {
		t.Fatalf("Stats.LPCalls = %d, the solver ran %d solves", res.Stats.LPCalls, solves)
	}
}

// TestStatsCoherence sanity-checks the cost counters the experiments rely
// on.
func TestStatsCoherence(t *testing.T) {
	points := dataset.Generate(dataset.IND, 500, 3, 3)
	tree := buildTree(t, points)
	in := Input{Tree: tree, Focal: points[9], FocalID: 9}

	aa, err := AA(in)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := BA(in)
	if err != nil {
		t.Fatal(err)
	}
	if aa.KStar != ba.KStar {
		t.Fatalf("k* mismatch: AA %d, BA %d", aa.KStar, ba.KStar)
	}
	// BA touches every incomparable record; AA must touch no more.
	if aa.Stats.IncomparableAccessed > ba.Stats.IncomparableAccessed {
		t.Fatalf("AA accessed %d > BA %d", aa.Stats.IncomparableAccessed, ba.Stats.IncomparableAccessed)
	}
	if aa.Stats.IO <= 0 || ba.Stats.IO <= 0 {
		t.Fatal("missing I/O counts")
	}
	// AA cannot use more I/O than BA: BA scans the whole incomparable
	// region, AA reads a subset of those pages plus the same dominator
	// counting pages.
	if aa.Stats.IO > ba.Stats.IO {
		t.Fatalf("AA I/O %d > BA I/O %d", aa.Stats.IO, ba.Stats.IO)
	}
	if aa.Stats.Iterations < 1 || ba.Stats.Iterations != 1 {
		t.Fatalf("iterations: AA %d, BA %d", aa.Stats.Iterations, ba.Stats.Iterations)
	}
	if aa.Stats.CPUTime <= 0 {
		t.Fatal("CPU time not measured")
	}
	if ba.Stats.HalfspacesInserted != int(ba.Stats.IncomparableAccessed) {
		t.Fatal("BA must insert one half-space per incomparable record")
	}
	if aa.Stats.HalfspacesInserted > ba.Stats.HalfspacesInserted {
		t.Fatal("AA inserted more half-spaces than BA")
	}
}

// TestFCAEdgeCases exercises degenerate sweep situations.
func TestFCAEdgeCases(t *testing.T) {
	// All records dominated by p: k* = 1 with the whole domain as region.
	points := []vecmath.Point{
		{0.9, 0.9}, {0.1, 0.2}, {0.2, 0.1}, {0.3, 0.3},
	}
	tree := buildTree(t, points)
	res, err := FCA(Input{Tree: tree, Focal: points[0], FocalID: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.KStar != 1 || len(res.Regions) != 1 {
		t.Fatalf("k*=%d regions=%d, want 1/1", res.KStar, len(res.Regions))
	}
	reg := res.Regions[0]
	if reg.Box.Lo[0] != 0 || reg.Box.Hi[0] != 1 {
		t.Fatalf("region %v should span the whole domain", reg.Box)
	}

	// Only dominators: k* = |D+| + 1 everywhere.
	points2 := []vecmath.Point{
		{0.1, 0.1}, {0.9, 0.9}, {0.8, 0.8}, {0.5, 0.5},
	}
	tree2 := buildTree(t, points2)
	res2, err := FCA(Input{Tree: tree2, Focal: points2[0], FocalID: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res2.KStar != 4 || res2.Dominators != 3 {
		t.Fatalf("k*=%d dom=%d, want 4/3", res2.KStar, res2.Dominators)
	}
}

// TestCollectRecordIDs verifies R_c materialisation across algorithms.
func TestCollectRecordIDs(t *testing.T) {
	points := dataset.Generate(dataset.IND, 60, 3, 5)
	tree := buildTree(t, points)
	in := Input{Tree: tree, Focal: points[3], FocalID: 3, CollectRecordIDs: true}
	for _, run := range []func(Input) (*Result, error){BA, AA} {
		res, err := run(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, reg := range res.Regions {
			if len(reg.OutrankIDs) != reg.Order {
				t.Fatalf("%d ids for order-%d region", len(reg.OutrankIDs), reg.Order)
			}
			q := vecmath.LiftQuery(reg.Witness)
			fs := points[3].Dot(q)
			for _, id := range reg.OutrankIDs {
				if points[id].Dot(q) <= fs {
					t.Fatalf("record %d listed in R_c but does not outrank p", id)
				}
			}
		}
	}
}

// TestBruteForceSelfConsistency pins the exact reference itself on
// Figure 1 of the paper: k* = 3 with one dominator, attained on exactly two
// cells, the intervals (0, 0.2) and (0.4, 0.6) of q1.
func TestBruteForceSelfConsistency(t *testing.T) {
	points := []vecmath.Point{
		{0.8, 0.9}, {0.2, 0.7}, {0.9, 0.4}, {0.7, 0.2}, {0.4, 0.3}, {0.5, 0.5},
	}
	ref := exactReference(points, points[5], 5, 0)
	if ref.KStar != 3 || ref.Dominators != 1 {
		t.Fatalf("reference says k*=%d dom=%d, want 3/1", ref.KStar, ref.Dominators)
	}
	if len(ref.Cells) != 2 {
		t.Fatalf("%d optimal cells, want 2: %+v", len(ref.Cells), ref.Cells)
	}
	for _, q1 := range []float64{0.1, 0.5} {
		if ev := ref.eval(vecmath.Point{q1}); !ref.hasCell(ev.Signs) {
			t.Errorf("q1 = %g (signs %s) lies in no optimal cell", q1, ev.Signs)
		}
	}
}
