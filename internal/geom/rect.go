// Package geom provides the computational-geometry layer of the MaxRank
// reproduction: axis-parallel rectangles, half-spaces in the reduced query
// space, the record-to-half-space mapping of Section 5 of the paper, and
// classification of boxes against half-spaces via support functions.
package geom

import (
	"fmt"
	"math"

	"repro/internal/vecmath"
)

// Rect is a closed axis-parallel box [Lo, Hi] in any dimensionality. It is
// shared by the R*-tree (data space MBRs) and the quad-tree (reduced query
// space partitions).
type Rect struct {
	Lo, Hi vecmath.Point
}

// NewRect builds a rectangle and validates that lo <= hi on every axis.
func NewRect(lo, hi vecmath.Point) (Rect, error) {
	if len(lo) != len(hi) {
		return Rect{}, fmt.Errorf("geom: rect corner dims differ: %d vs %d", len(lo), len(hi))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return Rect{}, fmt.Errorf("geom: rect has lo[%d]=%g > hi[%d]=%g", i, lo[i], i, hi[i])
		}
	}
	return Rect{Lo: lo.Clone(), Hi: hi.Clone()}, nil
}

// MustRect is NewRect for statically-correct literals; it panics on error.
func MustRect(lo, hi vecmath.Point) Rect {
	r, err := NewRect(lo, hi)
	if err != nil {
		panic(err)
	}
	return r
}

// UnitCube returns [0,1]^d.
func UnitCube(d int) Rect {
	lo := make(vecmath.Point, d)
	hi := make(vecmath.Point, d)
	for i := range hi {
		hi[i] = 1
	}
	return Rect{Lo: lo, Hi: hi}
}

// PointRect returns the degenerate rectangle covering exactly p.
func PointRect(p vecmath.Point) Rect {
	return Rect{Lo: p.Clone(), Hi: p.Clone()}
}

// Dim returns the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r.Lo) }

// Clone returns an independent copy.
func (r Rect) Clone() Rect {
	return Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()}
}

// Contains reports whether p lies inside the closed box.
func (r Rect) Contains(p vecmath.Point) bool {
	for i, v := range p {
		if v < r.Lo[i] || v > r.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] || s.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether the closed boxes share at least one point.
func (r Rect) Intersects(s Rect) bool {
	for i := range r.Lo {
		if r.Hi[i] < s.Lo[i] || s.Hi[i] < r.Lo[i] {
			return false
		}
	}
	return true
}

// Union returns the minimum bounding box of r and s.
func (r Rect) Union(s Rect) Rect {
	lo := make(vecmath.Point, len(r.Lo))
	hi := make(vecmath.Point, len(r.Hi))
	for i := range lo {
		lo[i] = math.Min(r.Lo[i], s.Lo[i])
		hi[i] = math.Max(r.Hi[i], s.Hi[i])
	}
	return Rect{Lo: lo, Hi: hi}
}

// Extend grows r in place to cover s.
func (r *Rect) Extend(s Rect) {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] {
			r.Lo[i] = s.Lo[i]
		}
		if s.Hi[i] > r.Hi[i] {
			r.Hi[i] = s.Hi[i]
		}
	}
}

// Area returns the d-dimensional volume of the box.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Lo {
		a *= r.Hi[i] - r.Lo[i]
	}
	return a
}

// Margin returns the sum of edge lengths (the R*-tree "margin" metric).
func (r Rect) Margin() float64 {
	var m float64
	for i := range r.Lo {
		m += r.Hi[i] - r.Lo[i]
	}
	return m
}

// IntersectionArea returns the volume of r ∩ s (0 when disjoint).
func (r Rect) IntersectionArea(s Rect) float64 {
	a := 1.0
	for i := range r.Lo {
		lo := math.Max(r.Lo[i], s.Lo[i])
		hi := math.Min(r.Hi[i], s.Hi[i])
		if hi <= lo {
			return 0
		}
		a *= hi - lo
	}
	return a
}

// Center returns the box center.
func (r Rect) Center() vecmath.Point {
	c := make(vecmath.Point, len(r.Lo))
	for i := range c {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

// Corner returns the corner of the box selected by the bit mask: bit i set
// picks Hi on axis i, clear picks Lo. Masks range over [0, 2^d).
func (r Rect) Corner(mask int) vecmath.Point {
	c := make(vecmath.Point, len(r.Lo))
	for i := range c {
		if mask&(1<<uint(i)) != 0 {
			c[i] = r.Hi[i]
		} else {
			c[i] = r.Lo[i]
		}
	}
	return c
}

func (r Rect) String() string {
	return fmt.Sprintf("[%v..%v]", []float64(r.Lo), []float64(r.Hi))
}
