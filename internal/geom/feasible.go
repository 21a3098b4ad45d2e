package geom

import (
	"math"

	"repro/internal/lp"
	"repro/internal/vecmath"
)

// InteriorTol is the margin below which an intersection is considered to
// have zero extent. Cells of the half-space arrangement are open and (in
// general position) full-dimensional, so "the cell is non-empty" in the
// paper's sense is exactly "the closed intersection admits an interior ball
// of radius > InteriorTol".
const InteriorTol = 1e-9

// epsCap bounds the margin variable so the feasibility LP is never
// unbounded; any value larger than the domain diameter works.
const epsCap = 10.0

// Feasibility is a reusable interior-feasibility checker: it owns a pooled
// lp.Solver plus the constraint-row arena, so a hot loop of cell tests
// performs no steady-state allocations. The zero value is ready to use; a
// Feasibility is not safe for concurrent use — give each worker its own.
type Feasibility struct {
	solver lp.Solver
	c      []float64
	flat   []float64 // backing storage for the constraint rows
	rows   [][]float64
	b      []float64
	w      vecmath.Point
}

// FeasibleInterior decides whether the intersection of the given closed
// half-spaces has non-empty interior, and if so returns a point strictly
// inside every half-space together with the achieved margin (the radius of
// the largest inscribed ball under the normalised constraints).
//
// The returned witness aliases checker-owned storage and is only valid
// until the next call on this receiver; callers that keep it must copy it.
//
// All callers intersect within [0,1]^dr, so the implicit x >= 0 restriction
// of the simplex standard form is harmless; include box constraints
// explicitly via BoxConstraints when needed.
func (f *Feasibility) FeasibleInterior(hs []Halfspace) (witness vecmath.Point, margin float64, ok bool) {
	if len(hs) == 0 {
		return nil, 0, false
	}
	dr := hs[0].Dim()
	nv := dr + 1 // x plus the margin variable eps
	maxRows := len(hs) + 1
	f.c = growFloat(f.c, nv)
	clearFloat(f.c)
	f.c[dr] = 1 // maximize eps
	stride := nv
	f.flat = growFloat(f.flat, maxRows*stride)
	f.rows = f.rows[:0]
	if cap(f.rows) < maxRows {
		f.rows = make([][]float64, 0, maxRows)
	}
	f.b = f.b[:0]
	if cap(f.b) < maxRows {
		f.b = make([]float64, 0, maxRows)
	}
	for _, h := range hs {
		norm := 0.0
		for _, v := range h.A {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm <= InteriorTol {
			// Degenerate constraint: either trivially true or trivially
			// false regardless of x.
			if h.B >= 0 {
				return nil, 0, false
			}
			continue
		}
		row := f.flat[len(f.rows)*stride : (len(f.rows)+1)*stride]
		for j, v := range h.A {
			row[j] = -v / norm // a·x >= b + eps*norm  ⇔  -a/‖a‖·x + eps <= -b/‖a‖
		}
		row[dr] = 1
		f.rows = append(f.rows, row)
		f.b = append(f.b, -h.B/norm)
	}
	capRow := f.flat[len(f.rows)*stride : (len(f.rows)+1)*stride]
	clearFloat(capRow)
	capRow[dr] = 1
	f.rows = append(f.rows, capRow)
	f.b = append(f.b, epsCap)

	// Substitute eps = eps' − K with K = max(0, −min b): every RHS becomes
	// b + K >= 0, so x = 0, eps' = 0 is feasible and the solver never
	// needs a phase 1.
	k := 0.0
	for _, b := range f.b {
		if -b > k {
			k = -b
		}
	}
	for i := range f.b {
		f.b[i] += k
	}
	sol, err := f.solver.Solve(lp.Problem{C: f.c, A: f.rows, B: f.b})
	if err != nil || sol.Status != lp.Optimal {
		return nil, 0, false
	}
	if margin = sol.Value - k; margin <= InteriorTol {
		return nil, 0, false
	}
	if cap(f.w) < dr {
		f.w = make(vecmath.Point, dr)
	}
	f.w = f.w[:dr]
	copy(f.w, sol.X[:dr])
	return f.w, margin, true
}

// FeasibleInterior is the allocation-per-call convenience wrapper around a
// throwaway Feasibility checker; hot loops should hold a Feasibility.
func FeasibleInterior(hs []Halfspace) (witness vecmath.Point, margin float64, ok bool) {
	var f Feasibility
	return f.FeasibleInterior(hs)
}

func growFloat(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func clearFloat(buf []float64) {
	for i := range buf {
		buf[i] = 0
	}
}
