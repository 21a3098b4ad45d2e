package cellenum

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/vecmath"
)

// lexSubsets lists the size-w subsets of {0..m-1} in lexicographic order.
func lexSubsets(m, w int) [][]int {
	var out [][]int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) == w {
			out = append(out, append([]int{}, cur...))
			return
		}
		for i := start; i < m; i++ {
			rec(i+1, append(cur, i))
		}
	}
	if w <= m {
		rec(0, nil)
	}
	return out
}

// satisfies reports whether the subset set breaks none of the clauses.
func satisfies(c *binaryConditions, m int, set []int) bool {
	x := make([]bool, m)
	for _, i := range set {
		x[i] = true
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			switch {
			case c.conflict11[i].Get(j) && x[i] && x[j]:
				return false
			case c.conflict00[i].Get(j) && !x[i] && !x[j]:
				return false
			case c.requires1[i].Get(j) && x[i] && !x[j]:
				return false
			}
		}
	}
	return true
}

// TestWalkMatchesFilter: over random clause tables the walk emits, weight
// by weight and in the same order, exactly the lexicographic subsets that
// satisfy every clause.
func TestWalkMatchesFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var e Enumerator
	emitted := 0
	for trial := 0; trial < 300; trial++ {
		m := rng.Intn(15)
		e.resetConditions(m)
		c := &e.cond
		density := rng.Float64() * 0.3
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				if rng.Float64() < density {
					c.conflict11[i].Set(j)
					c.conflict11[j].Set(i)
				}
				if rng.Float64() < density {
					c.conflict00[i].Set(j)
					c.conflict00[j].Set(i)
				}
				if rng.Float64() < density {
					c.requires1[i].Set(j)
					c.requiredBy[j].Set(i)
				}
				if rng.Float64() < density {
					c.requires1[j].Set(i)
					c.requiredBy[i].Set(j)
				}
			}
		}
		for w := 0; w <= m+1; w++ {
			var want [][]int
			for _, set := range lexSubsets(m, w) {
				if satisfies(c, m, set) {
					want = append(want, set)
				}
			}
			got := walkStrings(&e, m, w)
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("trial %d m=%d w=%d: walk emitted %v, want %v", trial, m, w, got, want)
			}
			emitted += len(got)
		}
	}
	if emitted < 1000 {
		t.Fatalf("only %d strings emitted: the tables are too dense to test much", emitted)
	}
}

// randomLeaf draws a sub-box of [0, 1]^dr that meets the open simplex and m
// half-spaces, each through a point drawn from the box stretched spread
// times about its centre: a spread above 1 gives forced and dead
// half-spaces as well as active ones.
func randomLeaf(rng *rand.Rand, dr, m int, spread float64) (geom.Rect, []geom.Halfspace) {
	lo, hi := make(vecmath.Point, dr), make(vecmath.Point, dr)
	for i := range lo {
		lo[i] = rng.Float64() * 0.8 / float64(dr)
		hi[i] = min(1, lo[i]+0.02+rng.Float64()*0.5)
	}
	box := geom.MustRect(lo, hi)
	partial := make([]geom.Halfspace, m)
	for k := range partial {
		a := make(vecmath.Point, dr)
		var b float64
		for i := range a {
			a[i] = rng.NormFloat64()
			p := lo[i] + (hi[i]-lo[i])*(0.5+(rng.Float64()-0.5)*spread)
			b += a[i] * p
		}
		partial[k] = geom.Halfspace{A: a, B: b}
	}
	return box, partial
}

// lpClassify classifies every half-space by running both LPs: forced when
// box ∩ simplex has no interior outside it, dead when none inside it.
func lpClassify(box geom.Rect, partial []geom.Halfspace) (forced, active []int) {
	var ref Enumerator
	ref.buildFixed(box)
	test := func(h geom.Halfspace) bool {
		_, _, ok := geom.FeasibleInterior(append(append([]geom.Halfspace{}, ref.fixed...), h))
		return ok
	}
	for i, h := range partial {
		switch {
		case !test(h.Complement()):
			forced = append(forced, i)
		case test(h):
			active = append(active, i)
		}
	}
	return forced, active
}

// TestClassificationMatchesLP: letting samples settle classification LPs
// changes no classification.
func TestClassificationMatchesLP(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var e Enumerator
	var nForced, nDead, nActive int
	for trial := 0; trial < 400; trial++ {
		dr := 1 + rng.Intn(4)
		box, partial := randomLeaf(rng, dr, 1+rng.Intn(20), 3)
		res := e.Enumerate(box, partial, Config{Seed: int64(trial), MaxWeight: -1, CandidateLimit: 1})
		forced, active := lpClassify(box, partial)
		if !reflect.DeepEqual(res.Forced, forced) || !reflect.DeepEqual(append([]int(nil), e.active...), active) {
			t.Fatalf("trial %d (dr=%d, m=%d): forced %v active %v, LPs say forced %v active %v",
				trial, dr, len(partial), res.Forced, e.active, forced, active)
		}
		nForced += len(forced)
		nActive += len(active)
		nDead += len(partial) - len(forced) - len(active)
	}
	if nForced < 100 || nDead < 100 || nActive < 100 {
		t.Fatalf("forced %d, dead %d, active %d: the leaves do not exercise every class", nForced, nDead, nActive)
	}
}

// exhaustiveLP is the reference for Enumerate: it classifies by LP, then
// LP-tests every sign vector of the active half-spaces up to the weight
// cap, and applies Enumerate's MinWeight/Extra rules to the result.
func exhaustiveLP(box geom.Rect, partial []geom.Halfspace, cfg Config) (cells map[string]bool, minW, completeUpTo int, forced []int) {
	forced, active := lpClassify(box, partial)
	nForced, m := len(forced), len(active)
	maxW := nForced + m
	if cfg.MaxWeight >= 0 && cfg.MaxWeight < maxW {
		maxW = cfg.MaxWeight
	}
	if maxW < nForced {
		return nil, -1, maxW, forced
	}
	var fixed Enumerator
	fixed.buildFixed(box)
	found := map[string]int{}
	minW = -1
	for mask := 0; mask < 1<<m; mask++ {
		in := append([]int{}, forced...)
		cons := append([]geom.Halfspace{}, fixed.fixed...)
		for ai, oi := range active {
			h := partial[oi]
			if mask&(1<<ai) != 0 {
				in = append(in, oi)
				cons = append(cons, h)
			} else {
				cons = append(cons, h.Complement())
			}
		}
		if len(in) > maxW {
			continue
		}
		if _, _, ok := geom.FeasibleInterior(cons); ok {
			sort.Ints(in)
			found[fmt.Sprint(in)] = len(in)
			if minW < 0 || len(in) < minW {
				minW = len(in)
			}
		}
	}
	stopW := maxW
	if minW >= 0 && minW+cfg.Extra < stopW {
		stopW = minW + cfg.Extra
	}
	cells = map[string]bool{}
	for key, w := range found {
		if w <= stopW {
			cells[key] = true
		}
	}
	return cells, minW, min(stopW, nForced+m), forced
}

// lpConditions builds the clause tables by an LP on every joint pattern of
// every pair of active half-spaces.
func lpConditions(box geom.Rect, partial []geom.Halfspace, active []int) binaryConditions {
	var ref Enumerator
	ref.buildFixed(box)
	m := len(active)
	ref.resetConditions(m)
	c := &ref.cond
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i == j {
				continue
			}
			hi, hj := partial[active[i]], partial[active[j]]
			test := func(a, b geom.Halfspace) bool {
				_, _, ok := geom.FeasibleInterior(append(append([]geom.Halfspace{}, ref.fixed...), a, b))
				return ok
			}
			if !test(hi, hj) {
				c.conflict11[i].Set(j)
			}
			if !test(hi.Complement(), hj.Complement()) {
				c.conflict00[i].Set(j)
			}
			if !test(hi, hj.Complement()) {
				c.requires1[i].Set(j)
				c.requiredBy[j].Set(i)
			}
		}
	}
	return ref.cond
}

// TestEnumerateMatchesExhaustiveLP: on small random leaves, Enumerate finds
// exactly the cells an LP on every sign vector finds, builds exactly the
// pair tables an LP on every pattern builds, and each witness clears its
// cell's rows.
func TestEnumerateMatchesExhaustiveLP(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	var e Enumerator
	var cells, tabled int
	for trial := 0; trial < 150; trial++ {
		dr := 1 + rng.Intn(4)
		box, partial := randomLeaf(rng, dr, 1+rng.Intn(10), 1.5)
		cfg := Config{Seed: int64(trial), MaxWeight: -1, Extra: rng.Intn(3)}
		if rng.Intn(3) == 0 {
			cfg.MaxWeight = rng.Intn(len(partial) + 1)
		}
		res := e.Enumerate(box, partial, cfg)
		want, minW, completeUpTo, forced := exhaustiveLP(box, partial, cfg)
		got := map[string]bool{}
		for _, c := range res.Cells {
			in := append([]int{}, c.In...)
			sort.Ints(in)
			got[fmt.Sprint(in)] = true
		}
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) ||
			res.MinWeight != minW || res.CompleteUpTo != completeUpTo || !reflect.DeepEqual(res.Forced, forced) {
			t.Fatalf("trial %d (dr=%d, m=%d, cfg %+v):\n got cells %v MinWeight %d CompleteUpTo %d Forced %v\nwant cells %v MinWeight %d CompleteUpTo %d Forced %v",
				trial, dr, len(partial), cfg, got, res.MinWeight, res.CompleteUpTo, res.Forced, want, minW, completeUpTo, forced)
		}
		e.buildFixed(box)
		for _, c := range res.Cells {
			inSet := map[int]bool{}
			for _, i := range c.In {
				inSet[i] = true
			}
			for _, f := range e.fixed {
				if side(f, math.Sqrt(f.A.Dot(f.A)), c.Witness) != 1 {
					t.Fatalf("trial %d: cell %v witness %v does not clear fixed row %v", trial, c.In, c.Witness, f)
				}
			}
			for _, oi := range e.active {
				want := -1
				if inSet[oi] {
					want = 1
				}
				if got := side(partial[oi], math.Sqrt(partial[oi].A.Dot(partial[oi].A)), c.Witness); got != want {
					t.Fatalf("trial %d: cell %v witness %v on side %d of half-space %d, want %d", trial, c.In, c.Witness, got, oi, want)
				}
			}
		}
		cells += len(res.Cells)
		if len(e.active) >= binaryConditionThreshold && (cfg.MaxWeight < 0 || cfg.MaxWeight >= len(res.Forced)) {
			tabled++
			if want := lpConditions(box, partial, e.active); !reflect.DeepEqual(e.cond, want) {
				t.Fatalf("trial %d: pair tables\n got %v\nwant %v", trial, e.cond, want)
			}
		}
	}
	if cells < 300 || tabled < 10 {
		t.Fatalf("%d cells, %d leaves with pair tables: too few to test much", cells, tabled)
	}
}

// resultAllocs counts the allocations a Result's own data takes: the In set
// (unless empty) and the witness of each cell, and each growth of the Cells
// and Forced slices.
func resultAllocs(res Result) int {
	n := appendSteps[Cell](len(res.Cells)) + appendSteps[int](len(res.Forced))
	for _, c := range res.Cells {
		n++
		if len(c.In) > 0 {
			n++
		}
	}
	return n
}

// appendSteps counts the reallocations of appending n elements one by one
// to a nil slice.
func appendSteps[T any](n int) int {
	var s []T
	var zero T
	steps := 0
	for i := 0; i < n; i++ {
		if len(s) == cap(s) {
			steps++
		}
		s = append(s, zero)
	}
	return steps
}

// TestEnumeratorScratchReuse alternates a large and a small leaf on one
// warm Enumerator: every scratch row survives the small leaf, so only the
// returned cells and Forced lists allocate.
func TestEnumeratorScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	largeBox, large := randomLeaf(rng, 3, 36, 3)
	smallBox, small := randomLeaf(rng, 2, 10, 3)
	cfg := Config{Seed: 5, MaxWeight: -1, Extra: 1}
	var e Enumerator
	resL := e.Enumerate(largeBox, large, cfg)
	resS := e.Enumerate(smallBox, small, cfg)
	if len(e.samples) >= 3*len(large) || len(resL.Forced) == 0 || len(resS.Cells) == 0 {
		t.Fatalf("leaves too alike: %d samples, %d forced, %d small cells", len(e.samples), len(resL.Forced), len(resS.Cells))
	}
	want := float64(resultAllocs(resL) + resultAllocs(resS))
	got := testing.AllocsPerRun(20, func() {
		e.Enumerate(largeBox, large, cfg)
		e.Enumerate(smallBox, small, cfg)
	})
	if got != want {
		t.Fatalf("a large and a small leaf: %v allocations, want %v (cells and Forced only)", got, want)
	}
}
