package lp

import (
	"math"
	"math/rand"
	"testing"
)

func solveOK(t *testing.T, p Problem) Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func TestSolveBasicMaximization(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0. Optimum at (4,0)=12.
	p := Problem{
		C: []float64{3, 2},
		A: [][]float64{{1, 1}, {1, 3}},
		B: []float64{4, 6},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if math.Abs(sol.Value-12) > 1e-9 {
		t.Fatalf("value = %g, want 12", sol.Value)
	}
	if math.Abs(sol.X[0]-4) > 1e-9 || math.Abs(sol.X[1]) > 1e-9 {
		t.Fatalf("x = %v, want [4 0]", sol.X)
	}
}

func TestSolveRequiresPhase1(t *testing.T) {
	// max x + y s.t. x + y >= 1 (i.e. -x-y <= -1), x <= 2, y <= 2.
	p := Problem{
		C: []float64{1, 1},
		A: [][]float64{{-1, -1}, {1, 0}, {0, 1}},
		B: []float64{-1, 2, 2},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || math.Abs(sol.Value-4) > 1e-9 {
		t.Fatalf("got %v value %g, want optimal 4", sol.Status, sol.Value)
	}
}

func TestSolveInfeasible(t *testing.T) {
	// x >= 2 and x <= 1 is empty.
	p := Problem{
		C: []float64{1},
		A: [][]float64{{-1}, {1}},
		B: []float64{-2, 1},
	}
	sol := solveOK(t, p)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestSolveUnbounded(t *testing.T) {
	// max x with only y constrained.
	p := Problem{
		C: []float64{1, 0},
		A: [][]float64{{0, 1}},
		B: []float64{1},
	}
	sol := solveOK(t, p)
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestSolveDegenerate(t *testing.T) {
	// Classic degenerate vertex: multiple constraints active at optimum.
	p := Problem{
		C: []float64{1, 1},
		A: [][]float64{{1, 0}, {0, 1}, {1, 1}},
		B: []float64{1, 1, 1},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || math.Abs(sol.Value-1) > 1e-9 {
		t.Fatalf("got %v value %g, want optimal 1", sol.Status, sol.Value)
	}
}

func TestSolveEqualityViaPair(t *testing.T) {
	// x + y == 1 encoded as two inequalities; max 2x + y = 2 at (1,0).
	p := Problem{
		C: []float64{2, 1},
		A: [][]float64{{1, 1}, {-1, -1}},
		B: []float64{1, -1},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || math.Abs(sol.Value-2) > 1e-9 {
		t.Fatalf("got %v value %g, want optimal 2", sol.Status, sol.Value)
	}
}

func TestSolveZeroObjectiveFeasibility(t *testing.T) {
	p := Problem{
		C: []float64{0, 0},
		A: [][]float64{{-1, 0}, {1, 0}},
		B: []float64{-0.5, 2},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if sol.X[0] < 0.5-1e-9 || sol.X[0] > 2+1e-9 {
		t.Fatalf("x[0] = %g outside [0.5, 2]", sol.X[0])
	}
}

func TestSolveBealeCycling(t *testing.T) {
	// Beale's LP cycles under Dantzig's largest-coefficient rule; Bland's
	// rule must reach the optimum 5/4 at (1, 0, 1, 0).
	p := Problem{
		C: []float64{0.75, -20, 0.5, -6},
		A: [][]float64{
			{0.25, -8, -1, 9},
			{0.5, -12, -0.5, 3},
			{0, 0, 1, 0},
		},
		B: []float64{0, 0, 1},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || math.Abs(sol.Value-1.25) > 1e-9 {
		t.Fatalf("got %v value %g, want optimal 1.25", sol.Status, sol.Value)
	}
	for j, want := range []float64{1, 0, 1, 0} {
		if math.Abs(sol.X[j]-want) > 1e-9 {
			t.Fatalf("x = %v, want [1 0 1 0]", sol.X)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	bad := Problem{C: []float64{1}, A: [][]float64{{1, 2}}, B: []float64{1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected row-width validation error")
	}
	bad2 := Problem{C: []float64{1}, A: [][]float64{{1}}, B: []float64{1, 2}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected rhs-count validation error")
	}
	if _, err := Solve(bad); err == nil {
		t.Fatal("Solve should propagate validation error")
	}
}

func TestRedundantConstraints(t *testing.T) {
	// Same constraint repeated; phase 1 may end with x0 basic at zero.
	p := Problem{
		C: []float64{1},
		A: [][]float64{{-1}, {-1}, {-1}, {1}},
		B: []float64{-1, -1, -1, 3},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || math.Abs(sol.Value-3) > 1e-9 {
		t.Fatalf("got %v value %g, want optimal 3", sol.Status, sol.Value)
	}
}

// TestRandomizedAgainstVertexEnumeration cross-checks the simplex against a
// brute-force optimum over the vertices of randomly generated bounded 2-D
// feasible regions.
func TestRandomizedAgainstVertexEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		// Random constraints plus a bounding box to guarantee boundedness.
		nCons := 3 + rng.Intn(5)
		p := Problem{C: []float64{rng.NormFloat64(), rng.NormFloat64()}}
		for i := 0; i < nCons; i++ {
			p.A = append(p.A, []float64{rng.NormFloat64(), rng.NormFloat64()})
			p.B = append(p.B, rng.Float64()*2-0.5)
		}
		p.A = append(p.A, []float64{1, 0}, []float64{0, 1})
		p.B = append(p.B, 5, 5)

		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		bruteVal, bruteFeasible := bruteForce2D(p)
		switch sol.Status {
		case Optimal:
			if !bruteFeasible {
				t.Fatalf("trial %d: simplex optimal %g but brute force says infeasible", trial, sol.Value)
			}
			if math.Abs(sol.Value-bruteVal) > 1e-6 {
				t.Fatalf("trial %d: simplex %g vs brute %g", trial, sol.Value, bruteVal)
			}
			for i, row := range p.A {
				lhs := row[0]*sol.X[0] + row[1]*sol.X[1]
				if lhs > p.B[i]+1e-6 {
					t.Fatalf("trial %d: constraint %d violated: %g > %g", trial, i, lhs, p.B[i])
				}
			}
		case Infeasible:
			if bruteFeasible {
				t.Fatalf("trial %d: simplex infeasible but brute force found value %g", trial, bruteVal)
			}
		case Unbounded:
			t.Fatalf("trial %d: unexpected unbounded (region is boxed)", trial)
		}
	}
}

// bruteForce2D enumerates all pairwise constraint intersections (plus axis
// intersections) of a 2-variable problem with x,y >= 0 and returns the best
// feasible objective value.
func bruteForce2D(p Problem) (best float64, feasible bool) {
	type pt struct{ x, y float64 }
	var cands []pt
	rows := append([][]float64{{-1, 0}, {0, -1}}, p.A...)
	rhs := append([]float64{0, 0}, p.B...)
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			a1, b1, c1 := rows[i][0], rows[i][1], rhs[i]
			a2, b2, c2 := rows[j][0], rows[j][1], rhs[j]
			det := a1*b2 - a2*b1
			if math.Abs(det) < 1e-12 {
				continue
			}
			cands = append(cands, pt{(c1*b2 - c2*b1) / det, (a1*c2 - a2*c1) / det})
		}
	}
	best = math.Inf(-1)
	for _, c := range cands {
		if c.x < -1e-9 || c.y < -1e-9 {
			continue
		}
		ok := true
		for i, row := range p.A {
			if row[0]*c.x+row[1]*c.y > p.B[i]+1e-9 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		feasible = true
		if v := p.C[0]*c.x + p.C[1]*c.y; v > best {
			best = v
		}
	}
	return best, feasible
}
