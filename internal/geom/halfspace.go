package geom

import (
	"fmt"

	"repro/internal/vecmath"
)

// Halfspace is the open half-space {x : A·x > B} in the reduced query space.
// Openness matters semantically (score ties are ignored by the paper) but
// all measure-level computations treat it as closed; emptiness tests in
// internal/lp recover strictness by demanding an interior margin.
type Halfspace struct {
	// A holds the normal coefficients, one per reduced-space axis.
	A vecmath.Point
	// B is the offset: the supporting hyperplane is A·x = B.
	B float64
}

// Dim returns the dimensionality of the half-space's ambient space.
func (h Halfspace) Dim() int { return len(h.A) }

// Contains reports whether x lies strictly inside the half-space.
func (h Halfspace) Contains(x vecmath.Point) bool { return h.A.Dot(x) > h.B }

// ContainsClosed reports whether x lies inside the closure (A·x >= B - tol).
func (h Halfspace) ContainsClosed(x vecmath.Point, tol float64) bool {
	return h.A.Dot(x) >= h.B-tol
}

// Complement returns the (closure of the) opposite half-space {x : -A·x > -B}.
func (h Halfspace) Complement() Halfspace {
	a := make(vecmath.Point, len(h.A))
	for i, v := range h.A {
		a[i] = -v
	}
	return Halfspace{A: a, B: -h.B}
}

func (h Halfspace) String() string {
	return fmt.Sprintf("{x: %v·x > %g}", []float64(h.A), h.B)
}

// BoxRelation classifies a box against a half-space.
type BoxRelation int

const (
	// BoxOutside: the box is disjoint from the (closed) half-space interior.
	BoxOutside BoxRelation = iota
	// BoxInside: the box lies entirely inside the closed half-space.
	BoxInside
	// BoxPartial: the supporting hyperplane crosses the box.
	BoxPartial
)

func (b BoxRelation) String() string {
	switch b {
	case BoxOutside:
		return "outside"
	case BoxInside:
		return "inside"
	default:
		return "partial"
	}
}

// Classify determines the relation of box r to half-space h using the box
// support function: min/max of A·x over the box are attained at corners
// chosen per-axis by the sign of A_i, so no corner enumeration is needed.
func (h Halfspace) Classify(r Rect) BoxRelation {
	var minV, maxV float64
	for i, a := range h.A {
		if a >= 0 {
			minV += a * r.Lo[i]
			maxV += a * r.Hi[i]
		} else {
			minV += a * r.Hi[i]
			maxV += a * r.Lo[i]
		}
	}
	switch {
	case minV >= h.B:
		return BoxInside
	case maxV <= h.B:
		return BoxOutside
	default:
		return BoxPartial
	}
}

// RecordHalfspace maps an incomparable record r to its half-space in the
// reduced query space (Section 5 of the paper):
//
//	S(r) > S(p)  ⇔  Σ_{i<d} (r_i − r_d − p_i + p_d)·q_i > p_d − r_d.
//
// A query vector q (reduced form) lies inside the half-space exactly when r
// outranks the focal record p.
func RecordHalfspace(r, p vecmath.Point) Halfspace {
	d := len(r)
	a := make(vecmath.Point, d-1)
	for i := 0; i < d-1; i++ {
		a[i] = r[i] - r[d-1] - p[i] + p[d-1]
	}
	return Halfspace{A: a, B: p[d-1] - r[d-1]}
}

// SimplexConstraints returns the closed half-space description of the
// reduced query space domain: q_i >= 0 for every axis and Σ q_i <= 1.
// (The true domain is open; strictness is recovered by margin-maximising
// feasibility tests.)
func SimplexConstraints(dr int) []Halfspace {
	hs := make([]Halfspace, 0, dr+1)
	for i := 0; i < dr; i++ {
		a := make(vecmath.Point, dr)
		a[i] = 1
		hs = append(hs, Halfspace{A: a, B: 0})
	}
	a := make(vecmath.Point, dr)
	for i := range a {
		a[i] = -1
	}
	hs = append(hs, Halfspace{A: a, B: -1})
	return hs
}

// BoxConstraints returns the 2·d closed half-spaces whose intersection is
// the box r.
func BoxConstraints(r Rect) []Halfspace {
	d := r.Dim()
	hs := make([]Halfspace, 0, 2*d)
	for i := 0; i < d; i++ {
		lo := make(vecmath.Point, d)
		lo[i] = 1
		hs = append(hs, Halfspace{A: lo, B: r.Lo[i]})
		hi := make(vecmath.Point, d)
		hi[i] = -1
		hs = append(hs, Halfspace{A: hi, B: -r.Hi[i]})
	}
	return hs
}
