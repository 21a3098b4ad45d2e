package core

import (
	"container/heap"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/vecmath"
)

// This file holds the exact reference every correctness test in the
// package compares against, and the contract that says where the float
// algorithms may differ from it. Coordinates convert to big.Rat with
// SetFloat64, which is exact, so the reference answers the instance the
// float code was given; every decision after that is made in rationals.

// exactMarginFloor is the contract's robustness threshold. An exact cell
// whose L1-normalised margin reaches it is wide enough that no float
// algorithm may miss it; a thinner cell may be lost to a tolerance.
const exactMarginFloor = 1e-6

var exactFloor = new(big.Rat).SetFloat64(exactMarginFloor)

// intHalfspace is {q : A·q > B} in the reduced query space, scaled by a
// power of two to integers. N = ‖A‖₁ turns A·q − B into the L1-normalised
// distance (A·q − B)/N.
type intHalfspace struct {
	A    []*big.Int
	B, N *big.Int
}

// exactPoint is the rational point X/Den, Den > 0. Keeping one common
// denominator lets every test against it run on integers, with no GCD.
type exactPoint struct {
	X   []*big.Int
	Den *big.Int
}

// float rounds p to float64 coordinates.
func (p exactPoint) float() vecmath.Point {
	out := make(vecmath.Point, len(p.X))
	for i, x := range p.X {
		out[i], _ = new(big.Rat).SetFrac(x, p.Den).Float64()
	}
	return out
}

// exactCell is one non-empty open cell of the arrangement.
type exactCell struct {
	// Signs has one byte per incomparable record, in dataset order: '1'
	// where the record outranks the focal inside the cell, '0' otherwise.
	Signs string
	// Order is the number of '1's.
	Order int
	// Margin is the largest t for which the cell holds a point at
	// L1-normalised distance ≥ t from each of its hyperplanes, with q_i ≥ t
	// and Σq ≤ 1 − t.
	Margin *big.Rat
	// Point is the margin LP's optimum, rounded to float: a point deep
	// inside the cell, in the reduced query space.
	Point vecmath.Point
}

// exactRef is the exact answer to one MaxRank query.
type exactRef struct {
	Dominators int64
	MinOrder   int
	KStar      int
	// Cells lists every cell of order at most MinOrder + τ, by ascending
	// order.
	Cells []exactCell

	dr    int
	focal []*big.Rat
	recs  [][]*big.Rat    // the incomparable records, full space
	hs    []intHalfspace  // their reduced-space half-spaces
	cells map[string]bool // the Signs of Cells
}

func ratPoint(p vecmath.Point) []*big.Rat {
	out := make([]*big.Rat, len(p))
	for i, v := range p {
		out[i] = new(big.Rat).SetFloat64(v)
	}
	return out
}

// ratDominance classifies r against p: +1 when r dominates p (≥ on every
// axis, > on one), −1 when p dominates r, 0 when the two are equal and 2
// when they are incomparable.
func ratDominance(r, p []*big.Rat) int {
	geq, leq := true, true
	for i := range r {
		switch r[i].Cmp(p[i]) {
		case -1:
			geq = false
		case 1:
			leq = false
		}
	}
	switch {
	case geq && leq:
		return 0
	case geq:
		return 1
	case leq:
		return -1
	}
	return 2
}

// exactHalfspace is geom.RecordHalfspace in exact arithmetic:
// S(r) > S(p) ⇔ Σ_{i<d} (r_i − r_d − p_i + p_d)·q_i > p_d − r_d. Every
// coefficient is a dyadic rational (a float difference), so multiplying by
// the largest denominator makes them all integers. An incomparable record
// never yields A = 0, since r − p has mixed signs.
func exactHalfspace(r, p []*big.Rat) intHalfspace {
	d := len(r)
	vals := make([]*big.Rat, d)
	for i := 0; i < d-1; i++ {
		a := new(big.Rat).Sub(r[i], r[d-1])
		a.Sub(a, p[i])
		vals[i] = a.Add(a, p[d-1])
	}
	vals[d-1] = new(big.Rat).Sub(p[d-1], r[d-1])
	scale := big.NewInt(1)
	for _, v := range vals {
		if v.Denom().Cmp(scale) > 0 {
			scale = v.Denom()
		}
	}
	ints := make([]*big.Int, d)
	for i, v := range vals {
		ints[i] = new(big.Int).Quo(scale, v.Denom())
		ints[i].Mul(ints[i], v.Num())
	}
	h := intHalfspace{A: ints[:d-1], B: ints[d-1], N: new(big.Int)}
	for _, a := range h.A {
		h.N.Add(h.N, new(big.Int).Abs(a))
	}
	return h
}

// side returns the sign of A·q − B at q.
func (h intHalfspace) side(q exactPoint) int {
	v := new(big.Int).Mul(h.B, q.Den)
	v.Neg(v)
	var t big.Int
	for i, a := range h.A {
		v.Add(v, t.Mul(a, q.X[i]))
	}
	return v.Sign()
}

// exactClassify converts the instance to rationals and splits the records
// into dominators and incomparable records (equal records and dominees
// never outrank the focal). It enumerates no cells: its eval alone scores
// witnesses exactly, at any n.
func exactClassify(points []vecmath.Point, focal vecmath.Point, focalIdx int) *exactRef {
	ref := &exactRef{dr: len(focal) - 1, focal: ratPoint(focal), cells: map[string]bool{}}
	for i, p := range points {
		if i == focalIdx {
			continue
		}
		r := ratPoint(p)
		switch ratDominance(r, ref.focal) {
		case 1:
			ref.Dominators++
		case 2:
			ref.recs = append(ref.recs, r)
			ref.hs = append(ref.hs, exactHalfspace(r, ref.focal))
		}
	}
	return ref
}

// exactReference answers the query for focal (points[focalIdx], or a
// what-if focal when focalIdx < 0) exactly. It enumerates the cells of the
// half-space arrangement best-first by order: a search node is a non-empty
// cell of the first j half-spaces together with an exact interior point.
// The child on the side where that point lies strictly inherits it with no
// LP; the other child costs one exact margin LP and exists iff its optimum
// is positive. Orders only grow with depth, so the first complete cell
// popped has the least order, and the search stops once the queue's least
// order leaves the band.
func exactReference(points []vecmath.Point, focal vecmath.Point, focalIdx, tau int) *exactRef {
	ref := exactClassify(points, focal, focalIdx)
	m := len(ref.hs)

	centre := exactPoint{X: make([]*big.Int, ref.dr), Den: big.NewInt(int64(ref.dr + 1))}
	for i := range centre.X {
		centre.X[i] = big.NewInt(1)
	}
	q := &exactQueue{{point: centre}}
	ref.MinOrder = -1
	for q.Len() > 0 {
		nd := heap.Pop(q).(*exactNode)
		if ref.MinOrder >= 0 && nd.order > ref.MinOrder+tau {
			break
		}
		j := len(nd.signs)
		if j == m {
			if ref.MinOrder < 0 {
				ref.MinOrder = nd.order
			}
			margin, point := nd.margin, nd.point
			if margin == nil {
				margin, point = ref.maxMargin(nd.signs)
			}
			ref.cells[string(nd.signs)] = true
			ref.Cells = append(ref.Cells, exactCell{Signs: string(nd.signs), Order: nd.order, Margin: margin, Point: point.float()})
			continue
		}
		side := ref.hs[j].side(nd.point)
		for _, in := range []bool{false, true} {
			child := &exactNode{signs: append(nd.signs[:j:j], '0'), order: nd.order}
			if in {
				child.signs[j] = '1'
				child.order++
			}
			if ref.MinOrder >= 0 && child.order > ref.MinOrder+tau {
				continue
			}
			if (in && side > 0) || (!in && side < 0) {
				child.point = nd.point
			} else {
				child.margin, child.point = ref.maxMargin(child.signs)
				if child.margin.Sign() <= 0 {
					continue
				}
			}
			heap.Push(q, child)
		}
	}
	ref.KStar = int(ref.Dominators) + ref.MinOrder + 1
	return ref
}

// maxMargin solves, exactly, max t subject to σ_k(A_k·q − B_k) ≥ N_k·t for
// each signed half-space k (σ = +1 for '1', −1 for '0'), q_i ≥ t and
// Σq ≤ 1 − t, and returns t* with an optimal q. The cell is non-empty iff
// t* > 0.
//
// Substituting s = t + T, for an integer T at least every σ_k·B_k/N_k,
// makes every right-hand side non-negative, so the origin is a feasible
// basis and no phase one is needed. Forcing q ≥ 0 and s ≥ 0 changes
// neither the sign of t* nor its value when positive, because then
// q_i ≥ t* > 0 already.
func (ref *exactRef) maxMargin(signs []byte) (*big.Rat, exactPoint) {
	dr := ref.dr
	n := dr + 1 // q, then s
	sigma := func(k int, v *big.Int) *big.Int {
		if signs[k] == '0' {
			return new(big.Int).Neg(v)
		}
		return new(big.Int).Set(v)
	}
	T := new(big.Int)
	for k := range signs {
		h := ref.hs[k]
		// ⌈σB/N⌉ for σB > 0; non-positive bounds are met by T = 0.
		if sb := sigma(k, h.B); sb.Sign() > 0 {
			sb.Add(sb, h.N).Sub(sb, big.NewInt(1)).Quo(sb, h.N)
			if sb.Cmp(T) > 0 {
				T = sb
			}
		}
	}
	var rows [][]*big.Int
	for k := range signs {
		// σ(A·q − B) ≥ N·t  ⇔  −σA·q + N·s ≤ −σB + N·T.
		h := ref.hs[k]
		row := make([]*big.Int, n+1)
		for i, a := range h.A {
			row[i] = sigma(k, a)
			row[i].Neg(row[i])
		}
		row[dr] = new(big.Int).Set(h.N)
		row[n] = new(big.Int).Mul(h.N, T)
		row[n].Sub(row[n], sigma(k, h.B))
		rows = append(rows, row)
	}
	for i := 0; i < dr; i++ {
		// q_i ≥ t  ⇔  −q_i + s ≤ T.
		row := intZeros(n + 1)
		row[i].SetInt64(-1)
		row[dr].SetInt64(1)
		row[n].Set(T)
		rows = append(rows, row)
	}
	// Σq ≤ 1 − t  ⇔  Σq + s ≤ 1 + T.
	row := intZeros(n + 1)
	for i := 0; i < n; i++ {
		row[i].SetInt64(1)
	}
	row[n].Add(T, big.NewInt(1))
	rows = append(rows, row)

	obj := intZeros(n + 1)
	obj[dr].SetInt64(1)
	x, z := blandMax(rows, obj)
	t := new(big.Rat).SetFrac(z.X[0], z.Den)
	t.Sub(t, new(big.Rat).SetInt(T))
	x.X = x.X[:dr]
	return t, x
}

func intZeros(n int) []*big.Int {
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = new(big.Int)
	}
	return out
}

// blandMax maximises c·x subject to A x ≤ b and x ≥ 0, for integer data
// with b ≥ 0, by the tableau simplex method with Bland's rule: the
// entering variable is the lowest-labelled one that improves the
// objective, and ratio-test ties leave by the lowest label, so degenerate
// input cannot make it cycle. Each row of rows is A's row followed by b's
// entry; obj is c followed by 0. Both are overwritten.
//
// The tableau is kept fraction-free: the true tableau is rows/den, where
// den is the last pivot, and every update divides exactly (Bareiss), so no
// step computes a GCD. Row i reads x_{basic[i]} + Σ_j (rows[i][j]/den)·
// x_{nonbasic[j]} = rows[i][n]/den, and the objective z satisfies
// −z + Σ_j (obj[j]/den)·x_{nonbasic[j]} = obj[n]/den. It returns the
// optimal x and z, each over the common denominator den.
func blandMax(rows [][]*big.Int, obj []*big.Int) (x, z exactPoint) {
	n := len(obj) - 1
	nonbasic := make([]int, n)
	for j := range nonbasic {
		nonbasic[j] = j
	}
	basic := make([]int, len(rows))
	for i := range basic {
		basic[i] = n + i
	}
	den := big.NewInt(1)
	var l, r, t big.Int
	for {
		col := -1
		for j := 0; j < n; j++ {
			if obj[j].Sign() > 0 && (col < 0 || nonbasic[j] < nonbasic[col]) {
				col = j
			}
		}
		if col < 0 {
			break
		}
		// Ratio test: least rows[i][n]/rows[i][col] over positive entries.
		row := -1
		for i, ri := range rows {
			if ri[col].Sign() <= 0 {
				continue
			}
			if row < 0 {
				row = i
				continue
			}
			l.Mul(ri[n], rows[row][col])
			r.Mul(rows[row][n], ri[col])
			if cmp := l.Cmp(&r); cmp < 0 || (cmp == 0 && basic[i] < basic[row]) {
				row = i
			}
		}
		if row < 0 {
			panic("blandMax: unbounded")
		}
		pr := rows[row]
		p := new(big.Int).Set(pr[col])
		update := func(ri []*big.Int) {
			f := new(big.Int).Set(ri[col])
			for j, v := range ri {
				if j == col {
					continue
				}
				v.Mul(v, p)
				v.Sub(v, t.Mul(f, pr[j]))
				v.Quo(v, den)
			}
			ri[col].Neg(f)
		}
		for i, ri := range rows {
			if i != row {
				update(ri)
			}
		}
		update(obj)
		pr[col].Set(den)
		den = p
		basic[row], nonbasic[col] = nonbasic[col], basic[row]
	}
	x = exactPoint{X: intZeros(n), Den: den}
	for i, v := range basic {
		if v < n {
			x.X[v] = rows[i][n]
		}
	}
	z = exactPoint{X: []*big.Int{new(big.Int).Neg(obj[n])}, Den: den}
	return x, z
}

// exactNode is a search node of exactReference: a non-empty cell of the
// first len(signs) half-spaces, with a point strictly inside it. margin is
// the cell's exact margin when point came from its margin LP, else nil.
type exactNode struct {
	signs  []byte
	order  int
	point  exactPoint
	margin *big.Rat
}

// exactQueue pops the least order first and, among equal orders, the
// deepest node, so complete cells surface as early as possible.
type exactQueue []*exactNode

func (q exactQueue) Len() int { return len(q) }
func (q exactQueue) Less(i, j int) bool {
	if q[i].order != q[j].order {
		return q[i].order < q[j].order
	}
	return len(q[i].signs) > len(q[j].signs)
}
func (q exactQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *exactQueue) Push(x any)   { *q = append(*q, x.(*exactNode)) }
func (q *exactQueue) Pop() any {
	old := *q
	nd := old[len(old)-1]
	*q = old[:len(old)-1]
	return nd
}

// exactEval is a reduced-space query point evaluated exactly.
type exactEval struct {
	Signs string
	Order int
	// Tied counts incomparable records scoring exactly the focal's score.
	Tied int
	// InDomain reports q_i > 0 on every axis and Σq < 1.
	InDomain bool
}

// eval lifts q to the full query vector (q, 1 − Σq) in rationals and
// scores the focal and every incomparable record there exactly.
func (ref *exactRef) eval(q vecmath.Point) exactEval {
	w := ratPoint(q)
	last := big.NewRat(1, 1)
	ev := exactEval{InDomain: true}
	for _, v := range w {
		last.Sub(last, v)
		if v.Sign() <= 0 {
			ev.InDomain = false
		}
	}
	if last.Sign() <= 0 {
		ev.InDomain = false
	}
	w = append(w, last)
	score := func(r []*big.Rat) *big.Rat {
		s := new(big.Rat)
		var t big.Rat
		for i, v := range r {
			s.Add(s, t.Mul(v, w[i]))
		}
		return s
	}
	fs := score(ref.focal)
	var signs strings.Builder
	for _, r := range ref.recs {
		switch score(r).Cmp(fs) {
		case 1:
			signs.WriteByte('1')
			ev.Order++
		case 0:
			signs.WriteByte('0')
			ev.Tied++
		default:
			signs.WriteByte('0')
		}
	}
	ev.Signs = signs.String()
	return ev
}

// robust reports whether some least-order cell has margin at least
// exactMarginFloor, and returns the widest least-order margin.
func (ref *exactRef) robust() (bool, float64) {
	var widest *big.Rat
	for _, c := range ref.Cells {
		if c.Order == ref.MinOrder && (widest == nil || c.Margin.Cmp(widest) > 0) {
			widest = c.Margin
		}
	}
	w, _ := widest.Float64()
	return widest.Cmp(exactFloor) >= 0, w
}

// checkAgainstExact asserts the contract between a float algorithm's
// answer and the exact reference:
//
//   - the dominator counts are equal, and KStar ≥ ref.KStar always;
//   - every region witness lies in the open domain, ties no incomparable
//     record when evaluated exactly, has the exact order Region.Order (in
//     the band), and its sign vector is a reference cell when its order is
//     in the reference's band;
//   - if some least-order reference cell has margin ≥ exactMarginFloor,
//     KStar == ref.KStar;
//   - when the k* agree, every band cell with margin ≥ exactMarginFloor has
//     its interior point covered by a region.
//
// An answer that differs from the reference only through thinner cells is
// reported with t.Logf and its margin.
func checkAgainstExact(t testing.TB, name string, res *Result, ref *exactRef, tau int) {
	t.Helper()
	if res.Dominators != ref.Dominators {
		t.Errorf("%s: dominators = %d, exact %d", name, res.Dominators, ref.Dominators)
	}
	if res.KStar < ref.KStar {
		t.Errorf("%s: k* = %d below the exact %d", name, res.KStar, ref.KStar)
	}
	if len(res.Regions) == 0 {
		t.Errorf("%s: no regions reported", name)
	}
	for i, reg := range res.Regions {
		if reg.Order < res.MinOrder || reg.Order > res.MinOrder+tau {
			t.Errorf("%s: region %d order %d outside band [%d,%d]", name, i, reg.Order, res.MinOrder, res.MinOrder+tau)
		}
		ev := ref.eval(reg.Witness)
		switch {
		case !ev.InDomain:
			t.Errorf("%s: region %d witness %v outside the open domain", name, i, reg.Witness)
		case ev.Tied > 0:
			t.Errorf("%s: region %d witness %v ties %d incomparable records", name, i, reg.Witness, ev.Tied)
		case ev.Order != reg.Order:
			t.Errorf("%s: region %d witness %v has exact order %d, claimed %d", name, i, reg.Witness, ev.Order, reg.Order)
		case reg.Order <= ref.MinOrder+tau && !ref.hasCell(ev.Signs):
			t.Errorf("%s: region %d witness %v has sign vector %s, no exact cell", name, i, reg.Witness, ev.Signs)
		}
	}
	if robust, widest := ref.robust(); res.KStar > ref.KStar && robust {
		t.Errorf("%s: k* = %d, exact %d with an optimal cell of margin %g", name, res.KStar, ref.KStar, widest)
	} else if res.KStar > ref.KStar {
		t.Logf("%s: k* = %d, exact %d; the exact optimal cells are thinner than %g (widest margin %g)",
			name, res.KStar, ref.KStar, exactMarginFloor, widest)
	}
	if res.KStar != ref.KStar {
		return
	}
	for _, c := range ref.Cells {
		if regionsCover(res, c.Point) {
			continue
		}
		m, _ := c.Margin.Float64()
		if c.Margin.Cmp(exactFloor) >= 0 {
			t.Errorf("%s: exact cell %s (order %d, margin %g) at %v not covered by any of %d regions",
				name, c.Signs, c.Order, m, c.Point, len(res.Regions))
		} else {
			t.Logf("%s: thin exact cell %s (order %d, margin %g) not covered", name, c.Signs, c.Order, m)
		}
	}
}

func (ref *exactRef) hasCell(signs string) bool { return ref.cells[signs] }

// TestExactReferenceExhaustive checks the best-first search against
// exhaustive enumeration on small grid instances: every one of the 2^m
// sign vectors is tested with the margin LP, and the non-empty ones of
// order at most MinOrder + τ must be exactly the reference's cells. Each
// cell's rounded interior point, when the cell is wide, must evaluate to
// the cell's own sign vector.
func TestExactReferenceExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 60; trial++ {
		d, n := 2+trial%3, 3+rng.Intn(6)
		points := make([]vecmath.Point, n)
		for i := range points {
			points[i] = make(vecmath.Point, d)
			for j := range points[i] {
				points[i][j] = float64(rng.Intn(17)) / 16
			}
		}
		tau := trial % 3
		ref := exactReference(points, points[0], 0, tau)
		m := len(ref.hs)
		want := map[string]bool{}
		minOrder := m + 1
		signs := make([]byte, m)
		for mask := 0; mask < 1<<m; mask++ {
			order := 0
			for k := range signs {
				signs[k] = '0'
				if mask>>k&1 == 1 {
					signs[k] = '1'
					order++
				}
			}
			if margin, _ := ref.maxMargin(signs); margin.Sign() > 0 {
				want[string(signs)] = true
				minOrder = min(minOrder, order)
			}
		}
		if ref.MinOrder != minOrder {
			t.Fatalf("trial %d: MinOrder %d, exhaustive %d", trial, ref.MinOrder, minOrder)
		}
		for _, c := range ref.Cells {
			if !want[c.Signs] {
				t.Fatalf("trial %d: reference cell %s is empty", trial, c.Signs)
			}
			if ev := ref.eval(c.Point); c.Margin.Cmp(exactFloor) >= 0 && (ev.Signs != c.Signs || ev.Tied > 0 || !ev.InDomain) {
				t.Fatalf("trial %d: cell %s has its point %v in %+v", trial, c.Signs, c.Point, ev)
			}
		}
		for s := range want {
			if strings.Count(s, "1") <= minOrder+tau && !ref.hasCell(s) {
				t.Fatalf("trial %d: band cell %s missing from the reference", trial, s)
			}
		}
	}
}
