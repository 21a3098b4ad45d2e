// Package lp implements a small, dependency-free linear-programming solver:
// a simplex method on a condensed (dictionary) tableau with Bland's
// anti-cycling rule.
//
// It fills the role Qhull plays in the paper's implementation: every
// "compute the cell by half-space intersection" step of the MaxRank
// algorithms only needs to know whether a cell has non-zero extent and, if
// so, a witness point strictly inside it. Both reduce to one LP of the form
//
//	maximize  c·x   subject to  A·x <= b,  x >= 0,
//
// with at most a dozen variables. The condensed tableau keeps one row per
// constraint and one column per nonbasic variable, so a pivot costs
// m·(n+1) whatever the slack count. When some b_i < 0, phase 1 adds a single
// auxiliary variable x0 (Chvátal's method) instead of one artificial per
// negative row; an LP whose origin is feasible skips phase 1 altogether.
package lp

import (
	"errors"
	"fmt"
)

// Status is the outcome of a solve.
type Status int

const (
	// Optimal: a finite optimum was found.
	Optimal Status = iota
	// Infeasible: the constraint set is empty.
	Infeasible
	// Unbounded: the objective is unbounded above on the feasible set.
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("lp.Status(%d)", int(s))
	}
}

// Problem is a linear program in the standard inequality form
// maximize C·x subject to A·x <= B, x >= 0.
type Problem struct {
	C []float64   // objective coefficients, one per variable
	A [][]float64 // constraint matrix, len(A) rows of len(C) coefficients
	B []float64   // right-hand sides, one per row
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status Status
	X      []float64 // primal point (valid when Status == Optimal)
	Value  float64   // objective value at X
}

// pivotTol treats reduced costs and pivot elements below this magnitude as
// zero. The LPs arising from MaxRank cells are small and well scaled (data
// in [0,1]), so a fixed tolerance is adequate.
const pivotTol = 1e-9

// maxIters bounds simplex iterations; Bland's rule guarantees termination
// but a cap converts any latent numerical livelock into an explicit error.
const maxIters = 100000

// ErrIterationLimit is returned when the simplex fails to converge within
// maxIters pivots; it indicates severe numerical trouble, not infeasibility.
var ErrIterationLimit = errors.New("lp: simplex iteration limit exceeded")

// Validate checks structural consistency of the problem.
func (p *Problem) Validate() error {
	n := len(p.C)
	if len(p.A) != len(p.B) {
		return fmt.Errorf("lp: %d constraint rows but %d right-hand sides", len(p.A), len(p.B))
	}
	for i, row := range p.A {
		if len(row) != n {
			return fmt.Errorf("lp: row %d has %d coefficients, want %d", i, len(row), n)
		}
	}
	return nil
}

// Solve runs the simplex on p. Each call uses a throwaway Solver, so the
// returned Solution.X is freshly allocated; hot loops should hold a
// reusable Solver instead.
func Solve(p Problem) (Solution, error) {
	var s Solver
	return s.Solve(p)
}
