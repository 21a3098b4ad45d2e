package lp

import "math"

// Solver is a reusable simplex solver. It owns the condensed tableau (one
// row per constraint, one column per nonbasic variable), the variable
// labels and the primal point, and recycles all of it across Solve calls,
// so a hot loop of small LPs — the per-cell feasibility tests of the
// MaxRank algorithms — performs no steady-state allocations. The zero value
// is ready to use.
//
// Row i of the tableau reads basic[i] + Σ_j t[i][j]·nonbasic[j] = rhs[i];
// the objective row reads z + Σ_j obj[j]·nonbasic[j] = val. Variables are
// labelled 0..n-1 (originals), n..n+m-1 (slacks) and n+m (the phase-1
// auxiliary x0).
//
// A Solver is not safe for concurrent use; give each worker its own. The
// package-level Solve remains the allocation-per-call convenience wrapper.
type Solver struct {
	t        []float64 // m rows of stride entries; the first w are in use
	rhs      []float64 // value of each row's basic variable
	obj      []float64 // reduced costs of the nonbasic columns
	val      float64   // objective value at the current basis
	basic    []int     // label of the variable basic in each row
	nonbasic []int     // label of the variable in each column
	x        []float64
	m        int // rows
	w        int // columns in use
	stride   int // row length in t
}

// Solve runs the simplex on p, reusing the receiver's buffers.
//
// The returned Solution.X aliases solver-owned storage and is only valid
// until the next Solve call on this receiver: callers that keep the point
// must copy it, callers that merely inspect it save the allocation.
func (s *Solver) Solve(p Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	n, m := len(p.C), len(p.A)

	// The origin is feasible unless some row has a negative RHS; the most
	// negative one is where phase 1 pivots x0 in.
	r0 := -1
	for i, b := range p.B {
		if b < 0 && (r0 < 0 || b < p.B[r0]) {
			r0 = i
		}
	}
	s.m, s.w, s.stride = m, n, n
	if r0 >= 0 {
		s.w, s.stride = n+1, n+1 // room for the x0 column
	}
	s.t = growFloat(s.t, m*s.stride)
	s.rhs = growFloat(s.rhs, m)
	s.obj = growFloat(s.obj, s.w)
	s.basic = growInt(s.basic, m)
	s.nonbasic = growInt(s.nonbasic, s.w)
	for j := 0; j < n; j++ {
		s.nonbasic[j] = j
	}
	for i, row := range p.A {
		copy(s.t[i*s.stride:], row)
		s.basic[i] = n + i
		s.rhs[i] = p.B[i]
	}

	if r0 >= 0 {
		// Phase 1: x0 has coefficient −1 in every row. Pivoting it in at
		// the most negative row makes every RHS non-negative; then maximise
		// −x0, i.e. the objective row z + x0 = 0.
		x0 := n + m
		s.nonbasic[n] = x0
		for i := 0; i < m; i++ {
			s.t[i*s.stride+n] = -1
		}
		clear(s.obj)
		s.obj[n], s.val = 1, 0
		s.pivot(r0, n)
		if _, err := s.iterate(); err != nil {
			return Solution{}, err
		}
		if s.val < -pivotTol*float64(m+1) {
			return Solution{Status: Infeasible}, nil
		}
		s.dropX0(x0)
	}

	// Phase 2: express z = C·x in the current nonbasic variables.
	for j := 0; j < s.w; j++ {
		s.obj[j] = 0
		if l := s.nonbasic[j]; l < n {
			s.obj[j] = -p.C[l]
		}
	}
	s.val = 0
	for i := 0; i < m; i++ {
		l := s.basic[i]
		if l >= n || p.C[l] == 0 {
			continue
		}
		c := p.C[l]
		for j, v := range s.row(i) {
			s.obj[j] += c * v
		}
		s.val += c * s.rhs[i]
	}
	bounded, err := s.iterate()
	if err != nil {
		return Solution{}, err
	}
	if !bounded {
		return Solution{Status: Unbounded}, nil
	}

	s.x = growFloat(s.x, n)
	clear(s.x)
	for i := 0; i < m; i++ {
		if l := s.basic[i]; l < n {
			s.x[l] = s.rhs[i]
		}
	}
	var val float64
	for j := 0; j < n; j++ {
		val += p.C[j] * s.x[j]
	}
	return Solution{Status: Optimal, X: s.x, Value: val}, nil
}

// row returns the in-use columns of tableau row i.
func (s *Solver) row(i int) []float64 {
	return s.t[i*s.stride : i*s.stride+s.w]
}

// pivot exchanges the basic variable of row r with the nonbasic variable of
// column c.
func (s *Solver) pivot(r, c int) {
	pr := s.row(r)
	inv := 1 / pr[c]
	for j := range pr {
		pr[j] *= inv
	}
	pr[c] = inv // the leaving variable's coefficient
	s.rhs[r] *= inv
	for i := 0; i < s.m; i++ {
		if i == r {
			continue
		}
		row := s.row(i)
		f := row[c]
		if f == 0 {
			continue
		}
		for j, v := range pr {
			row[j] -= f * v
		}
		row[c] = -f * inv
		s.rhs[i] -= f * s.rhs[r]
	}
	if f := s.obj[c]; f != 0 {
		obj := s.obj[:s.w]
		for j, v := range pr {
			obj[j] -= f * v
		}
		obj[c] = -f * inv
		s.val -= f * s.rhs[r]
	}
	s.basic[r], s.nonbasic[c] = s.nonbasic[c], s.basic[r]
}

// iterate pivots until optimality or the iteration cap, and reports false
// when an entering column has no blocking row (the LP is unbounded).
func (s *Solver) iterate() (bounded bool, err error) {
	for iter := 0; iter < maxIters; iter++ {
		// Bland's rule: the entering variable is the lowest label with a
		// negative reduced cost (we maximise).
		enter := -1
		for j, d := range s.obj[:s.w] {
			if d < -pivotTol && (enter < 0 || s.nonbasic[j] < s.nonbasic[enter]) {
				enter = j
			}
		}
		if enter < 0 {
			return true, nil
		}
		// Leaving variable: minimum ratio, ties to the lowest basic label.
		leave := -1
		best := math.Inf(1)
		for i := 0; i < s.m; i++ {
			a := s.t[i*s.stride+enter]
			if a <= pivotTol {
				continue
			}
			ratio := s.rhs[i] / a
			if ratio < best-pivotTol || (math.Abs(ratio-best) <= pivotTol &&
				(leave < 0 || s.basic[i] < s.basic[leave])) {
				best = ratio
				leave = i
			}
		}
		if leave < 0 {
			return false, nil
		}
		s.pivot(leave, enter)
	}
	return false, ErrIterationLimit
}

// dropX0 ends phase 1 at a feasible basis. If x0 is still basic (at zero) it
// is pivoted out on any nonzero entry of its row; a row with none is a
// redundant constraint and is cleared, leaving x0 basic there at zero for
// good. A nonbasic x0 column is then dropped by moving the last column
// into its place.
func (s *Solver) dropX0(x0 int) {
	for i := 0; i < s.m; i++ {
		if s.basic[i] != x0 {
			continue
		}
		row := s.row(i)
		for j, v := range row {
			if math.Abs(v) > pivotTol {
				s.pivot(i, j)
				break
			}
		}
		if s.basic[i] == x0 {
			clear(row)
			s.rhs[i] = 0
			return
		}
		break
	}
	last := s.w - 1
	for c := 0; c <= last; c++ {
		if s.nonbasic[c] != x0 {
			continue
		}
		for i := 0; i < s.m; i++ {
			row := s.row(i)
			row[c] = row[last]
		}
		s.obj[c] = s.obj[last]
		s.nonbasic[c] = s.nonbasic[last]
		s.w = last
		return
	}
}

// The grow helpers reslice within capacity and only allocate when the
// requested size exceeds anything the buffer has held before — the steady
// state of a solver recycled across same-shaped LPs is allocation-free.

func growFloat(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growInt(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}
