package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vecmath"
)

func TestRectBasics(t *testing.T) {
	r := MustRect(vecmath.Point{0, 0}, vecmath.Point{2, 3})
	if r.Area() != 6 {
		t.Errorf("area = %g, want 6", r.Area())
	}
	if r.Margin() != 5 {
		t.Errorf("margin = %g, want 5", r.Margin())
	}
	if !r.Contains(vecmath.Point{1, 1}) || r.Contains(vecmath.Point{3, 1}) {
		t.Error("contains misclassifies")
	}
	c := r.Center()
	if c[0] != 1 || c[1] != 1.5 {
		t.Errorf("center = %v", c)
	}
}

func TestNewRectValidation(t *testing.T) {
	if _, err := NewRect(vecmath.Point{1}, vecmath.Point{0}); err == nil {
		t.Error("expected error for lo > hi")
	}
	if _, err := NewRect(vecmath.Point{0, 0}, vecmath.Point{1}); err == nil {
		t.Error("expected error for dim mismatch")
	}
}

func TestRectUnionIntersection(t *testing.T) {
	a := MustRect(vecmath.Point{0, 0}, vecmath.Point{2, 2})
	b := MustRect(vecmath.Point{1, 1}, vecmath.Point{3, 3})
	u := a.Union(b)
	if !u.ContainsRect(a) || !u.ContainsRect(b) {
		t.Error("union does not contain both")
	}
	if got := a.IntersectionArea(b); math.Abs(got-1) > 1e-12 {
		t.Errorf("intersection area = %g, want 1", got)
	}
	far := MustRect(vecmath.Point{5, 5}, vecmath.Point{6, 6})
	if a.Intersects(far) || a.IntersectionArea(far) != 0 {
		t.Error("disjoint rects misreported")
	}
}

func TestRectCorner(t *testing.T) {
	r := MustRect(vecmath.Point{0, 0}, vecmath.Point{1, 2})
	if got := r.Corner(0); !got.Equal(vecmath.Point{0, 0}) {
		t.Errorf("corner 0 = %v", got)
	}
	if got := r.Corner(3); !got.Equal(vecmath.Point{1, 2}) {
		t.Errorf("corner 3 = %v", got)
	}
	if got := r.Corner(1); !got.Equal(vecmath.Point{1, 0}) {
		t.Errorf("corner 1 = %v", got)
	}
}

func TestHalfspaceContains(t *testing.T) {
	h := Halfspace{A: vecmath.Point{1, 0}, B: 0.5} // x > 0.5
	if !h.Contains(vecmath.Point{0.6, 0}) || h.Contains(vecmath.Point{0.4, 0}) {
		t.Error("contains misclassifies")
	}
	c := h.Complement()
	if c.Contains(vecmath.Point{0.6, 0}) || !c.Contains(vecmath.Point{0.4, 0}) {
		t.Error("complement misclassifies")
	}
}

// Property: for every box and half-space, Classify agrees with exhaustive
// corner checks.
func TestClassifyMatchesCorners(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		d := 1 + rng.Intn(4)
		lo := make(vecmath.Point, d)
		hi := make(vecmath.Point, d)
		for i := 0; i < d; i++ {
			a, b := rng.Float64(), rng.Float64()
			lo[i], hi[i] = math.Min(a, b), math.Max(a, b)
		}
		r := Rect{Lo: lo, Hi: hi}
		a := make(vecmath.Point, d)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		h := Halfspace{A: a, B: rng.NormFloat64() * 0.5}

		allIn, allOut := true, true
		for mask := 0; mask < 1<<uint(d); mask++ {
			v := h.A.Dot(r.Corner(mask))
			if v < h.B {
				allIn = false
			}
			if v > h.B {
				allOut = false
			}
		}
		got := h.Classify(r)
		switch {
		case allIn && got != BoxInside:
			t.Fatalf("trial %d: all corners inside but Classify=%v", trial, got)
		case allOut && got != BoxOutside:
			t.Fatalf("trial %d: all corners outside but Classify=%v", trial, got)
		case !allIn && !allOut && got != BoxPartial:
			t.Fatalf("trial %d: mixed corners but Classify=%v", trial, got)
		}
	}
}

// Property: the record half-space mapping is exact — a reduced query vector
// q lies inside h_r if and only if S(r) > S(p) under the lifted query.
func TestRecordHalfspaceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 3000; trial++ {
		d := 2 + rng.Intn(4)
		r := make(vecmath.Point, d)
		p := make(vecmath.Point, d)
		for i := 0; i < d; i++ {
			r[i] = rng.Float64()
			p[i] = rng.Float64()
		}
		h := RecordHalfspace(r, p)
		// Random reduced-space point in the open simplex.
		q := make(vecmath.Point, d-1)
		rem := 1.0
		for i := range q {
			q[i] = rng.Float64() * rem * 0.9
			rem -= q[i]
		}
		full := vecmath.LiftQuery(q)
		scoreGap := r.Dot(full) - p.Dot(full)
		inside := h.Contains(q)
		if (scoreGap > 1e-9) != inside && math.Abs(scoreGap) > 1e-9 {
			t.Fatalf("trial %d: gap=%g inside=%v (r=%v p=%v q=%v)",
				trial, scoreGap, inside, r, p, q)
		}
	}
}

func TestSimplexConstraints(t *testing.T) {
	hs := SimplexConstraints(2)
	if len(hs) != 3 {
		t.Fatalf("got %d constraints, want 3", len(hs))
	}
	in := vecmath.Point{0.3, 0.3}
	out := vecmath.Point{0.8, 0.4}
	for _, h := range hs {
		if !h.ContainsClosed(in, 1e-12) {
			t.Errorf("interior point rejected by %v", h)
		}
	}
	violated := false
	for _, h := range hs {
		if !h.ContainsClosed(out, 1e-12) {
			violated = true
		}
	}
	if !violated {
		t.Error("point with sum > 1 accepted by all constraints")
	}
}

func TestBoxConstraints(t *testing.T) {
	r := MustRect(vecmath.Point{0.2, 0.3}, vecmath.Point{0.6, 0.8})
	hs := BoxConstraints(r)
	if len(hs) != 4 {
		t.Fatalf("got %d constraints, want 4", len(hs))
	}
	f := func(x, y float64) bool {
		p := vecmath.Point{math.Mod(math.Abs(x), 1), math.Mod(math.Abs(y), 1)}
		inBox := r.Contains(p)
		inAll := true
		for _, h := range hs {
			if !h.ContainsClosed(p, 0) {
				inAll = false
			}
		}
		return inBox == inAll
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFeasibleInterior(t *testing.T) {
	// Unit square intersected with x+y <= 1: interior exists.
	hs := BoxConstraints(UnitCube(2))
	hs = append(hs, Halfspace{A: vecmath.Point{-1, -1}, B: -1})
	w, margin, ok := FeasibleInterior(hs)
	if !ok || margin <= 0 {
		t.Fatalf("expected interior, got ok=%v margin=%g", ok, margin)
	}
	for _, h := range hs {
		if !h.Contains(w) {
			t.Fatalf("witness %v not strictly inside %v", w, h)
		}
	}

	// Add a contradictory constraint: x >= 2 within the unit square.
	hs2 := append(append([]Halfspace{}, hs...), Halfspace{A: vecmath.Point{1, 0}, B: 2})
	if _, _, ok := FeasibleInterior(hs2); ok {
		t.Fatal("expected infeasible")
	}

	// A degenerate (measure-zero) intersection: x >= 0.5 and x <= 0.5.
	hs3 := append(append([]Halfspace{}, hs...),
		Halfspace{A: vecmath.Point{1, 0}, B: 0.5},
		Halfspace{A: vecmath.Point{-1, 0}, B: -0.5})
	if _, _, ok := FeasibleInterior(hs3); ok {
		t.Fatal("expected zero-extent intersection to be rejected")
	}
}

func TestFeasibleInteriorEmptyInput(t *testing.T) {
	if _, _, ok := FeasibleInterior(nil); ok {
		t.Fatal("nil constraint set should not report an interior")
	}
}

func TestDegenerateHalfspace(t *testing.T) {
	hs := []Halfspace{
		{A: vecmath.Point{0, 0}, B: -1}, // trivially true
		{A: vecmath.Point{1, 0}, B: 0},
		{A: vecmath.Point{-1, 0}, B: -1},
		{A: vecmath.Point{0, 1}, B: 0},
		{A: vecmath.Point{0, -1}, B: -1},
	}
	if _, _, ok := FeasibleInterior(hs); !ok {
		t.Fatal("trivially-true constraint should not block feasibility")
	}
	hs[0] = Halfspace{A: vecmath.Point{0, 0}, B: 1} // trivially false
	if _, _, ok := FeasibleInterior(hs); ok {
		t.Fatal("trivially-false constraint should force infeasibility")
	}
}
