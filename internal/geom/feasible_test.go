package geom

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
	"repro/internal/vecmath"
)

// randomCellSet builds a constraint set shaped like the enumerator's: the
// box of a quad-tree leaf inside [0,1]^dr, the query simplex, and `extra`
// random half-spaces. Their boundaries pass near a point c of the box;
// in half the sets every one keeps c inside, so that sets with and
// without an interior both occur.
func randomCellSet(rng *rand.Rand, dr, extra int) []Halfspace {
	lo, hi, c := make(vecmath.Point, dr), make(vecmath.Point, dr), make(vecmath.Point, dr)
	for j := range lo {
		lo[j] = rng.Float64() * 0.8 / float64(dr)
		hi[j] = lo[j] + (1-lo[j])*(0.05+0.95*rng.Float64())
		c[j] = lo[j] + (hi[j]-lo[j])*rng.Float64()
	}
	keepC := rng.Intn(2) == 0
	hs := append(BoxConstraints(MustRect(lo, hi)), SimplexConstraints(dr)...)
	for k := 0; k < extra; k++ {
		a := make(vecmath.Point, dr)
		for j := range a {
			a[j] = rng.NormFloat64()
		}
		off := 0.05 * rng.NormFloat64()
		if keepC {
			off = -math.Abs(off)
		}
		hs = append(hs, Halfspace{A: a, B: a.Dot(c) + off})
	}
	return hs
}

// unshiftedMarginLP states the margin LP without the shift: maximise ε
// subject to a·x >= b + ε‖a‖ for every half-space and ε <= epsCap, with
// x, ε >= 0. Rows with a negative RHS need the solver's phase 1.
func unshiftedMarginLP(hs []Halfspace) lp.Problem {
	dr := hs[0].Dim()
	prob := lp.Problem{C: make([]float64, dr+1)}
	prob.C[dr] = 1
	for _, h := range hs {
		norm := math.Sqrt(h.A.Dot(h.A))
		row := make([]float64, dr+1)
		for j, v := range h.A {
			row[j] = -v / norm
		}
		row[dr] = 1
		prob.A = append(prob.A, row)
		prob.B = append(prob.B, -h.B/norm)
	}
	capRow := make([]float64, dr+1)
	capRow[dr] = 1
	prob.A = append(prob.A, capRow)
	prob.B = append(prob.B, epsCap)
	return prob
}

// TestFeasibleInteriorShiftMatchesUnshifted checks the shifted margin LP
// FeasibleInterior solves against the unshifted one: the same decision,
// the same margin, and a witness that clears every half-space by it.
func TestFeasibleInteriorShiftMatchesUnshifted(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var f Feasibility
	var s lp.Solver
	feasible := 0
	const trials = 3000
	for trial := 0; trial < trials; trial++ {
		hs := randomCellSet(rng, 1+rng.Intn(4), 2+rng.Intn(29))
		w, margin, ok := f.FeasibleInterior(hs)
		sol, err := s.Solve(unshiftedMarginLP(hs))
		if err != nil {
			t.Fatalf("trial %d: unshifted LP: %v", trial, err)
		}
		wantOK := sol.Status == lp.Optimal && sol.Value > InteriorTol
		if ok != wantOK {
			t.Fatalf("trial %d: ok = %v, unshifted LP says %v (status %v, value %g)",
				trial, ok, wantOK, sol.Status, sol.Value)
		}
		if !ok {
			continue
		}
		feasible++
		if math.Abs(margin-sol.Value) > 1e-12 {
			t.Fatalf("trial %d: margin %.17g, unshifted %.17g", trial, margin, sol.Value)
		}
		for i, h := range hs {
			norm := math.Sqrt(h.A.Dot(h.A))
			if slack := h.A.Dot(w) - h.B; slack < margin*norm-1e-12 {
				t.Fatalf("trial %d: witness clears half-space %d by %g < margin·‖a‖ = %g",
					trial, i, slack, margin*norm)
			}
		}
	}
	t.Logf("%d of %d sets have an interior", feasible, trials)
	if feasible < trials/10 || feasible > trials*9/10 {
		t.Fatalf("%d of %d sets have an interior; the generator should mix both", feasible, trials)
	}
}

// BenchmarkFeasibleInterior times one margin LP on the two shapes the
// enumerator solves: a pairwise-table test (box + simplex + 2 rows) and a
// cell test (box + simplex + 25 rows), at dr = 3 as in a d = 4 query.
func BenchmarkFeasibleInterior(b *testing.B) {
	for _, bc := range []struct {
		name  string
		extra int
	}{{"pair", 2}, {"cell", 25}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			sets := make([][]Halfspace, 16)
			for i := range sets {
				sets[i] = randomCellSet(rng, 3, bc.extra)
			}
			var f Feasibility
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.FeasibleInterior(sets[i%len(sets)])
			}
		})
	}
}
