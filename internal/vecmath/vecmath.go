// Package vecmath provides dense vector primitives shared by every layer of
// the MaxRank implementation: points, scoring, dominance tests and the
// mapping from data space to the reduced query space.
//
// Conventions (matching the paper, Mouratidis et al., PVLDB 2015):
//   - a record r is a point in [0,1]^d (the domain bound is conventional,
//     not required);
//   - a query vector q has q_i > 0 and Σ q_i = 1 ("permissible");
//   - the score is the dot product S(r) = r · q and larger is better;
//   - record a dominates b when a_i >= b_i on every axis and a != b.
package vecmath

import (
	"fmt"
	"math"
)

// Point is a record or query vector in d-dimensional space.
type Point []float64

// Clone returns an independent copy of p.
func (p Point) Clone() Point {
	c := make(Point, len(p))
	copy(c, p)
	return c
}

// Dim returns the dimensionality of p.
func (p Point) Dim() int { return len(p) }

// Dot returns the dot product p · q. It panics if dimensions differ, since
// that is always a programming error rather than a data error.
func (p Point) Dot(q Point) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("vecmath: dot of mismatched dims %d and %d", len(p), len(q)))
	}
	var s float64
	for i, v := range p {
		s += v * q[i]
	}
	return s
}

// Sum returns the sum of the coordinates of p.
func (p Point) Sum() float64 {
	var s float64
	for _, v := range p {
		s += v
	}
	return s
}

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i, v := range p {
		if v != q[i] {
			return false
		}
	}
	return true
}

// Dominance is the outcome of comparing two records under the "larger is
// better on every axis" partial order used throughout the paper.
type Dominance int

const (
	// Incomparable: neither record dominates the other.
	Incomparable Dominance = iota
	// Dominates: the first record dominates the second.
	Dominates
	// DominatedBy: the first record is dominated by the second.
	DominatedBy
	// Same: identical coordinates (the paper ignores score ties; we surface
	// them so callers can decide).
	Same
)

// Compare classifies the dominance relationship between a and b.
func Compare(a, b Point) Dominance {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: compare of mismatched dims %d and %d", len(a), len(b)))
	}
	geq, leq := true, true
	for i, v := range a {
		if v < b[i] {
			geq = false
		}
		if v > b[i] {
			leq = false
		}
	}
	switch {
	case geq && leq:
		return Same
	case geq:
		return Dominates
	case leq:
		return DominatedBy
	default:
		return Incomparable
	}
}

// DominatesStrict reports whether a dominates b (a >= b on all axes, a != b).
func DominatesStrict(a, b Point) bool { return Compare(a, b) == Dominates }

// LiftQuery reconstructs the full d-dimensional permissible query vector from
// a point in the reduced (d-1)-dimensional query space, i.e. it appends
// q_d = 1 - Σ q_i.
func LiftQuery(reduced Point) Point {
	q := make(Point, len(reduced)+1)
	copy(q, reduced)
	q[len(reduced)] = 1 - reduced.Sum()
	return q
}

// ReduceQuery drops the last weight of a full query vector (the inverse of
// LiftQuery for permissible vectors).
func ReduceQuery(q Point) Point {
	r := make(Point, len(q)-1)
	copy(r, q[:len(q)-1])
	return r
}

// IsPermissible reports whether q is a permissible query vector: all weights
// strictly positive and summing to 1 within tol.
func IsPermissible(q Point, tol float64) bool {
	var s float64
	for _, v := range q {
		if v <= 0 {
			return false
		}
		s += v
	}
	return math.Abs(s-1) <= tol
}

// MinMax returns per-axis minima and maxima over the given points. It panics
// on an empty input: callers always know the dataset is non-empty.
func MinMax(pts []Point) (lo, hi Point) {
	if len(pts) == 0 {
		panic("vecmath: MinMax of empty point set")
	}
	d := len(pts[0])
	lo, hi = make(Point, d), make(Point, d)
	copy(lo, pts[0])
	copy(hi, pts[0])
	for _, p := range pts[1:] {
		for i, v := range p {
			if v < lo[i] {
				lo[i] = v
			}
			if v > hi[i] {
				hi[i] = v
			}
		}
	}
	return lo, hi
}
