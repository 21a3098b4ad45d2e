package lp

import (
	"math"
	"math/big"
	"testing"
)

// fuzzBox bounds every variable of a decoded LP, so it is never Unbounded.
const fuzzBox = 2

// decodeLP turns fuzz bytes into a small LP on the k/16 grid:
//
//	data[0]  n = 1 + data[0]%4 variables
//	data[1]  m = data[1]%9 constraint rows
//	then n objective coefficients, then per row n coefficients and the RHS,
//
// one signed byte k each, read as k/16. Missing bytes read as zero. The box
// rows x_j <= fuzzBox are appended after the decoded ones.
func decodeLP(data []byte) Problem {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		pos++
		return data[pos-1]
	}
	val := func() float64 { return float64(int8(next())) / 16 }
	n := 1 + int(next())%4
	m := int(next()) % 9
	p := Problem{C: make([]float64, n)}
	for j := range p.C {
		p.C[j] = val()
	}
	for i := 0; i < m+n; i++ {
		row := make([]float64, n)
		b := float64(fuzzBox)
		if i < m {
			for j := range row {
				row[j] = val()
			}
			b = val()
		} else {
			row[i-m] = 1
		}
		p.A = append(p.A, row)
		p.B = append(p.B, b)
	}
	return p
}

// encodeLP is decodeLP's inverse for the rows before the box; every value
// must lie on the k/16 grid within [-8, 8).
func encodeLP(c []float64, a [][]float64, b []float64) []byte {
	k := func(v float64) byte { return byte(int8(v * 16)) }
	data := []byte{byte(len(c) - 1), byte(len(a))}
	for _, v := range c {
		data = append(data, k(v))
	}
	for i, row := range a {
		for _, v := range row {
			data = append(data, k(v))
		}
		data = append(data, k(b[i]))
	}
	return data
}

// exactOptimum solves p by enumerating the vertices of {A·x <= B, x >= 0}
// in exact rational arithmetic: every choice of n constraints held tight
// whose system has a unique solution that satisfies all constraints. It
// returns false when no vertex is feasible; the region is then empty,
// because a non-empty region inside x >= 0 has a vertex.
func exactOptimum(p Problem) (*big.Rat, bool) {
	n := len(p.C)
	var rows [][]*big.Rat // a·x <= β stored as [a..., β]
	rat := func(v float64) *big.Rat { return new(big.Rat).SetFloat64(v) }
	for i, r := range p.A {
		row := make([]*big.Rat, n+1)
		for j, v := range r {
			row[j] = rat(v)
		}
		row[n] = rat(p.B[i])
		rows = append(rows, row)
	}
	for j := 0; j < n; j++ { // −x_j <= 0
		row := make([]*big.Rat, n+1)
		for k := range row {
			row[k] = new(big.Rat)
		}
		row[j].SetInt64(-1)
		rows = append(rows, row)
	}
	c := make([]*big.Rat, n)
	for j, v := range p.C {
		c[j] = rat(v)
	}

	var best *big.Rat
	pick := make([]int, 0, n)
	var walk func(from int)
	walk = func(from int) {
		if len(pick) == n {
			x := solveTight(rows, pick)
			if x == nil || !satisfiesAll(rows, x) {
				return
			}
			v := dotRat(c, x)
			if best == nil || v.Cmp(best) > 0 {
				best = v
			}
			return
		}
		for i := from; i < len(rows); i++ {
			pick = append(pick, i)
			walk(i + 1)
			pick = pick[:len(pick)-1]
		}
	}
	walk(0)
	return best, best != nil
}

// solveTight solves the square system of the picked rows held at equality
// by Gauss–Jordan elimination, or returns nil when it is singular.
func solveTight(rows [][]*big.Rat, pick []int) []*big.Rat {
	n := len(pick)
	m := make([][]*big.Rat, n)
	for i, r := range pick {
		m[i] = make([]*big.Rat, n+1)
		for j := range m[i] {
			m[i][j] = new(big.Rat).Set(rows[r][j])
		}
	}
	tmp := new(big.Rat)
	for col := 0; col < n; col++ {
		piv := -1
		for i := col; i < n; i++ {
			if m[i][col].Sign() != 0 {
				piv = i
				break
			}
		}
		if piv < 0 {
			return nil
		}
		m[col], m[piv] = m[piv], m[col]
		inv := new(big.Rat).Inv(m[col][col])
		for j := col; j <= n; j++ {
			m[col][j].Mul(m[col][j], inv)
		}
		for i := 0; i < n; i++ {
			if i == col || m[i][col].Sign() == 0 {
				continue
			}
			f := new(big.Rat).Set(m[i][col])
			for j := col; j <= n; j++ {
				m[i][j].Sub(m[i][j], tmp.Mul(f, m[col][j]))
			}
		}
	}
	x := make([]*big.Rat, n)
	for i := range x {
		x[i] = m[i][n]
	}
	return x
}

func satisfiesAll(rows [][]*big.Rat, x []*big.Rat) bool {
	n := len(x)
	for _, r := range rows {
		if dotRat(r[:n], x).Cmp(r[n]) > 0 {
			return false
		}
	}
	return true
}

func dotRat(a, x []*big.Rat) *big.Rat {
	s, tmp := new(big.Rat), new(big.Rat)
	for j := range x {
		s.Add(s, tmp.Mul(a[j], x[j]))
	}
	return s
}

// FuzzSolve compares the simplex with exact vertex enumeration on small
// boxed LPs: the status must agree, the value must match within 1e-9 and
// the returned point must satisfy every constraint within 1e-9.
func FuzzSolve(f *testing.F) {
	f.Add(encodeLP([]float64{1, 1}, [][]float64{{1, 1}, {-1, -1}}, []float64{1, -1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeLP(data)
		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		want, feasible := exactOptimum(p)
		if !feasible {
			if sol.Status != Infeasible {
				t.Fatalf("status %v, exact says infeasible (%+v)", sol.Status, p)
			}
			return
		}
		if sol.Status != Optimal {
			t.Fatalf("status %v, exact optimum %s (%+v)", sol.Status, want.RatString(), p)
		}
		exact, _ := want.Float64()
		if math.Abs(sol.Value-exact) > 1e-9 {
			t.Fatalf("value %g, exact %s (%+v)", sol.Value, want.RatString(), p)
		}
		for j, v := range sol.X {
			if v < -1e-9 {
				t.Fatalf("x[%d] = %g < 0 (%+v)", j, v, p)
			}
		}
		for i, row := range p.A {
			lhs := 0.0
			for j, v := range row {
				lhs += v * sol.X[j]
			}
			if lhs > p.B[i]+1e-9 {
				t.Fatalf("row %d: %g > %g at x = %v (%+v)", i, lhs, p.B[i], sol.X, p)
			}
		}
	})
}
