package cellenum

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/vecmath"
)

func unitBox(dr int) geom.Rect { return geom.UnitCube(dr) }

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Fatal("get/set broken")
	}
	if b.Count() != 3 {
		t.Fatalf("count = %d", b.Count())
	}
	c := b.Clone()
	if !c.Equal(b) {
		t.Fatal("clone not equal")
	}
	c.Set(5)
	if b.Get(5) {
		t.Fatal("clone aliases original")
	}
	o := NewBitset(130)
	o.Set(129)
	if !b.IntersectsAny(o) {
		t.Fatal("intersects broken")
	}
	o.Set(7)
	if b.Key() == o.Key() {
		t.Fatal("distinct bitsets share a key")
	}
}

func TestEnumerateEmptyPartial(t *testing.T) {
	res := Enumerate(unitBox(2), nil, Config{})
	if len(res.Cells) != 1 || res.MinWeight != 0 {
		t.Fatalf("expected the single whole-leaf cell, got %+v", res)
	}
	w := res.Cells[0].Witness
	if w.Sum() >= 1 || w[0] <= 0 || w[1] <= 0 {
		t.Fatalf("witness %v outside the open simplex", w)
	}
}

func TestEnumerateLeafOutsideSimplex(t *testing.T) {
	box := geom.MustRect(vecmath.Point{0.8, 0.8}, vecmath.Point{0.9, 0.9})
	res := Enumerate(box, []geom.Halfspace{{A: vecmath.Point{1, 0}, B: 0.5}}, Config{MaxWeight: -1})
	if len(res.Cells) != 0 {
		t.Fatalf("leaf outside Σq<1 must have no cells, got %d", len(res.Cells))
	}
}

// enumerateBrute computes the set of non-empty cell bit-strings by dense
// sampling of the leaf ∩ simplex.
func enumerateBrute(rng *rand.Rand, box geom.Rect, partial []geom.Halfspace, samples int) map[string]int {
	out := map[string]int{}
	dr := box.Dim()
	for s := 0; s < samples; s++ {
		p := make(vecmath.Point, dr)
		var sum float64
		for i := range p {
			p[i] = box.Lo[i] + rng.Float64()*(box.Hi[i]-box.Lo[i])
			sum += p[i]
		}
		if sum >= 1 {
			continue
		}
		ok := true
		for _, v := range p {
			if v <= 0 {
				ok = false
			}
		}
		if !ok {
			continue
		}
		bits := NewBitset(len(partial))
		w := 0
		for i, h := range partial {
			if h.Contains(p) {
				bits.Set(i)
				w++
			}
		}
		key := bits.Key()
		if old, seen := out[key]; !seen || w < old {
			out[key] = w
		}
	}
	return out
}

// TestEnumerateMatchesSampling cross-checks the within-leaf module against
// dense sampling: the minimum weight must match, and every sampled cell at
// the minimum weight must be reported.
func TestEnumerateMatchesSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		dr := 1 + rng.Intn(3)
		m := 1 + rng.Intn(9)
		partial := make([]geom.Halfspace, m)
		for i := range partial {
			a := make(vecmath.Point, dr)
			for j := range a {
				a[j] = rng.NormFloat64()
			}
			partial[i] = geom.Halfspace{A: a, B: rng.NormFloat64() * 0.2}
		}
		box := unitBox(dr)
		res := Enumerate(box, partial, Config{Seed: int64(trial), MaxWeight: -1})
		sampled := enumerateBrute(rng, box, partial, 30000)

		minSampled := m + 1
		for _, w := range sampled {
			if w < minSampled {
				minSampled = w
			}
		}
		if len(sampled) == 0 {
			continue
		}
		// Sampling can miss thin cells, so it only upper-bounds the true
		// minimum; enumerated cells are certified by their witnesses below.
		if res.MinWeight > minSampled {
			t.Fatalf("trial %d: MinWeight=%d, sampling found weight %d", trial, res.MinWeight, minSampled)
		}
		// Every enumerated cell must be genuinely non-empty: its witness
		// satisfies its own bit pattern.
		for _, cell := range res.Cells {
			inSet := map[int]bool{}
			for _, i := range cell.In {
				inSet[i] = true
			}
			for i, h := range partial {
				if inSet[i] != h.Contains(cell.Witness) {
					t.Fatalf("trial %d: witness contradicts bit %d", trial, i)
				}
			}
		}
		// Every sampled min-weight cell must be reported.
		reported := map[string]bool{}
		for _, cell := range res.Cells {
			bits := NewBitset(m)
			for _, i := range cell.In {
				bits.Set(i)
			}
			reported[bits.Key()] = true
		}
		for key, w := range sampled {
			if w == res.MinWeight && !reported[key] {
				t.Fatalf("trial %d: sampled min-weight cell not reported", trial)
			}
		}
	}
}

func TestEnumerateExtraWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	partial := make([]geom.Halfspace, 6)
	for i := range partial {
		a := vecmath.Point{rng.NormFloat64(), rng.NormFloat64()}
		partial[i] = geom.Halfspace{A: a, B: rng.NormFloat64() * 0.2}
	}
	base := Enumerate(unitBox(2), partial, Config{Seed: 1, MaxWeight: -1})
	ext := Enumerate(unitBox(2), partial, Config{Seed: 1, Extra: 2, MaxWeight: -1})
	if len(ext.Cells) < len(base.Cells) {
		t.Fatalf("Extra=2 found fewer cells (%d) than Extra=0 (%d)", len(ext.Cells), len(base.Cells))
	}
	for _, cell := range ext.Cells {
		if cell.POrder() > ext.MinWeight+2 {
			t.Fatalf("cell with weight %d beyond MinWeight+2=%d", cell.POrder(), ext.MinWeight+2)
		}
	}
}

func TestEnumerateMaxWeightCap(t *testing.T) {
	// Construct half-spaces that all contain the whole simplex: the only
	// cell has weight m, so a cap below m must yield nothing.
	partial := []geom.Halfspace{
		{A: vecmath.Point{1, 1}, B: -5},
		{A: vecmath.Point{1, 0}, B: -5},
	}
	res := Enumerate(unitBox(2), partial, Config{MaxWeight: 1})
	if len(res.Cells) != 0 {
		t.Fatalf("cap violated: %d cells", len(res.Cells))
	}
	if len(res.Forced) != 2 {
		t.Fatalf("forced = %v, want both", res.Forced)
	}
	res = Enumerate(unitBox(2), partial, Config{MaxWeight: -1})
	if len(res.Cells) != 1 || res.MinWeight != 2 {
		t.Fatalf("uncapped: %+v", res)
	}
}

func TestEnumerateDeadHalfspace(t *testing.T) {
	// A half-space missing the simplex entirely must be excluded from every
	// cell (bit 0) without inflating weights.
	partial := []geom.Halfspace{
		{A: vecmath.Point{1, 1}, B: 5}, // unreachable inside Σq<1
		{A: vecmath.Point{1, -1}, B: 0},
	}
	res := Enumerate(unitBox(2), partial, Config{MaxWeight: -1})
	if res.MinWeight != 0 {
		t.Fatalf("MinWeight = %d, want 0", res.MinWeight)
	}
	for _, cell := range res.Cells {
		for _, i := range cell.In {
			if i == 0 {
				t.Fatal("dead half-space appears in a cell")
			}
		}
	}
}

// walkStrings drives the walk over the clause tables in e.cond and
// returns the set bits of every string it emits, in order.
func walkStrings(e *Enumerator, m, w int) [][]int {
	var out [][]int
	e.startWalk(m, w)
	for {
		str, ok := e.nextString()
		if !ok {
			return out
		}
		set := []int{}
		for i := 0; i < m; i++ {
			if str.Get(i) {
				set = append(set, i)
			}
		}
		out = append(out, set)
	}
}

// TestForEachSubsetDFSCounts: over empty clause tables the walk emits
// every size-w subset exactly once.
func TestForEachSubsetDFSCounts(t *testing.T) {
	for _, tc := range []struct{ m, w, want int }{
		{5, 0, 1}, {5, 1, 5}, {5, 2, 10}, {5, 5, 1}, {5, 6, 0}, {6, 3, 20}, {0, 0, 1}, {70, 2, 2415},
	} {
		var e Enumerator
		e.resetConditions(tc.m)
		got := walkStrings(&e, tc.m, tc.w)
		for _, set := range got {
			if len(set) != tc.w {
				t.Fatalf("m=%d w=%d: emitted %v", tc.m, tc.w, set)
			}
		}
		if len(got) != tc.want {
			t.Fatalf("m=%d w=%d: %d subsets, want %d", tc.m, tc.w, len(got), tc.want)
		}
	}
}

func TestTooManyCombinations(t *testing.T) {
	if tooManyCombinations(10, 5, 252) {
		t.Fatal("C(10,5)=252 should fit a limit of 252")
	}
	if !tooManyCombinations(10, 5, 251) {
		t.Fatal("C(10,5)=252 should exceed a limit of 251")
	}
	if !tooManyCombinations(100, 50, 1<<30) {
		t.Fatal("C(100,50) should exceed any practical limit")
	}
	// Against math/big at the limit and one either side, for m up to 400.
	for m := 0; m <= 400; m += 1 + m/8 {
		for w := 0; w <= m+1; w += 1 + m/16 {
			c := new(big.Int).Binomial(int64(m), int64(w))
			if !c.IsInt64() || c.Int64() == math.MaxInt64 {
				if !tooManyCombinations(m, w, math.MaxInt) {
					t.Fatalf("C(%d,%d) = %v fits a limit of MaxInt", m, w, c)
				}
				continue
			}
			n := int(c.Int64())
			if tooManyCombinations(m, w, n+1) || (n > 0 && tooManyCombinations(m, w, n)) {
				t.Fatalf("C(%d,%d) = %d exceeds a limit of %d or %d", m, w, n, n, n+1)
			}
			if n > 0 && !tooManyCombinations(m, w, n-1) {
				t.Fatalf("C(%d,%d) = %d fits a limit of %d", m, w, n, n-1)
			}
		}
	}
	if !tooManyCombinations(5, 2, 0) || tooManyCombinations(5, 6, 1) {
		t.Fatal("a limit of 0 must truncate and C(5,6) = 0 must fit")
	}
}

// TestEnumerateSampleOnHyperplane: records (0.75, 0.25) and (0.25, 0.75)
// against the focal (0.5, 0.5) give the half-spaces q > 0.5 and q < 0.5,
// so every open cell of [0, 1] lies in exactly one of them. The LP anchor
// of the box is its centre, q = 0.5, which lies on both hyperplanes; a
// sample there must not certify the zero-measure "cell" of weight 0.
func TestEnumerateSampleOnHyperplane(t *testing.T) {
	partial := []geom.Halfspace{
		{A: vecmath.Point{0.5}, B: 0.25},
		{A: vecmath.Point{-0.5}, B: -0.25},
	}
	res := Enumerate(unitBox(1), partial, Config{MaxWeight: -1})
	if res.MinWeight != 1 {
		t.Fatalf("MinWeight = %d, want 1 (cells %+v)", res.MinWeight, res.Cells)
	}
	for _, c := range res.Cells {
		if w := c.Witness[0]; w == 0.5 {
			t.Fatalf("cell %v has its witness on a hyperplane", c.In)
		}
	}
}
