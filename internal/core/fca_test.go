package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/vecmath"
)

// fcaReference is FCA as it was before the pooled sweep: one crossing
// list of structs sorted with sort.Slice, an explicit interval list, and a
// per-record map the sweep kept under CollectRecordIDs. TestFCAMatchesReference
// holds fcaRun to it, whole Result for whole Result.
func fcaReference(in Input) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.Tree.Dim() != 2 {
		return nil, fmt.Errorf("core: FCA requires d = 2, got %d", in.Tree.Dim())
	}
	start := timeNow()
	ctx, rd, tr := in.begin()
	res := &Result{}
	p := in.Focal

	dom, err := CountDominators(rd, p)
	if err != nil {
		return nil, err
	}

	// Sweep state: above0 counts incomparable records scoring above p as
	// q1 -> 0+; every crossing inside (0,1) carries the order delta +-1.
	type crossing struct {
		t     float64
		delta int
		id    int64
	}
	var crossings []crossing
	above := make(map[int64]bool) // records above p at the current q1
	above0 := 0
	var nInc int64
	err = scanIncomparable(ctx, rd, p, in.FocalID, func(r vecmath.Point, id int64) error {
		nInc++
		// score(r) - score(p) at q1 is (r2-p2) + a*q1 with a the slope gap.
		a := (r[0] - r[1]) - (p[0] - p[1])
		c := r[1] - p[1]
		isAbove0 := c > 0 || (c == 0 && a > 0)
		if isAbove0 {
			above0++
		}
		if a == 0 {
			return nil
		}
		t := -c / a
		if t <= 0 || t >= 1 {
			return nil // reordering outside the permissible domain
		}
		delta := +1
		if isAbove0 {
			delta = -1 // r drops below p at t
		}
		if in.CollectRecordIDs {
			above[id] = isAbove0
		}
		crossings = append(crossings, crossing{t: t, delta: delta, id: id})
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Stats.IncomparableAccessed = nInc
	sort.Slice(crossings, func(i, j int) bool { return crossings[i].t < crossings[j].t })

	// Build intervals between consecutive distinct crossing values.
	type interval struct {
		lo, hi float64
		order  int
	}
	var intervals []interval
	cur := above0
	lo := 0.0
	minOrder := above0
	i := 0
	for i <= len(crossings) {
		var hi float64
		if i == len(crossings) {
			hi = 1
		} else {
			hi = crossings[i].t
		}
		if hi > lo {
			intervals = append(intervals, interval{lo: lo, hi: hi, order: cur})
			if cur < minOrder {
				minOrder = cur
			}
		}
		if i == len(crossings) {
			break
		}
		// Apply every crossing at this t (ties change the order at once).
		t := crossings[i].t
		for i < len(crossings) && crossings[i].t == t {
			cur += crossings[i].delta
			if in.CollectRecordIDs {
				above[crossings[i].id] = !above[crossings[i].id]
			}
			i++
		}
		lo = t
	}
	if len(intervals) == 0 {
		// No incomparable records at all: the whole domain is one region.
		intervals = append(intervals, interval{lo: 0, hi: 1, order: 0})
		minOrder = 0
	}

	var regions []Region
	for _, iv := range intervals {
		if iv.order > minOrder+in.Tau {
			continue
		}
		reg := Region{
			Box:     geom.MustRect(vecmath.Point{iv.lo}, vecmath.Point{iv.hi}),
			Witness: vecmath.Point{(iv.lo + iv.hi) / 2},
			Order:   iv.order,
		}
		if in.CollectRecordIDs {
			reg.OutrankIDs, err = outranksAt2D(ctx, &in, rd, reg.Witness[0])
			if err != nil {
				return nil, err
			}
		}
		regions = append(regions, reg)
	}
	finishResult(res, regions, minOrder, in.Tau, dom)
	res.Stats.Dominators = dom
	res.Stats.Iterations = 1
	res.Stats.IO = tr.Reads()
	res.Stats.CPUTime = timeNow().Sub(start)
	return res, nil
}

// gridPoints is the k/8 grid of the unit square, every point once: ties
// everywhere, and for any grid focal records level with it (c == 0) and on
// its slope (a == 0).
func gridPoints() []vecmath.Point {
	var pts []vecmath.Point
	for i := 0; i <= 8; i++ {
		for j := 0; j <= 8; j++ {
			pts = append(pts, vecmath.Point{float64(i) / 8, float64(j) / 8})
		}
	}
	return pts
}

// TestFCAMatchesReference: the pooled sweep answers exactly as the
// reference does — regions, boxes, witnesses, orders, OutrankIDs and every
// Stats field but CPUTime — on the three distributions, on a grid full of
// tied crossings and on what-if focals, at τ = 0 and 2, with and without
// record IDs.
func TestFCAMatchesReference(t *testing.T) {
	type set struct {
		name   string
		points []vecmath.Point
		focals []Input // Tree is filled in below
	}
	var sets []set
	for _, dist := range []dataset.Distribution{dataset.IND, dataset.COR, dataset.ANTI} {
		const n = 2000
		points := dataset.Generate(dist, n, 2, 37)
		rng := rand.New(rand.NewSource(int64(dist)))
		var focals []Input
		for i := 0; i < 40; i++ {
			id := (i * 7919) % n
			focals = append(focals, Input{Focal: points[id], FocalID: int64(id)})
		}
		for i := 0; i < 8; i++ {
			focals = append(focals, Input{Focal: vecmath.Point{rng.Float64(), rng.Float64()}, FocalID: -1})
		}
		// A record's own coordinates as a what-if point: its twin is Same,
		// neither a dominator nor incomparable.
		focals = append(focals, Input{Focal: points[1].Clone(), FocalID: -1})
		sets = append(sets, set{fmt.Sprint(dist), points, focals})
	}
	grid := gridPoints()
	var gridFocals []Input
	levels, slopes := 0, 0
	for id, p := range grid {
		gridFocals = append(gridFocals, Input{Focal: p, FocalID: int64(id)})
		for _, r := range grid {
			if vecmath.Compare(r, p) == vecmath.Same {
				continue
			}
			if r[1] == p[1] {
				levels++
			}
			if (r[0]-r[1])-(p[0]-p[1]) == 0 {
				slopes++
			}
		}
	}
	for _, p := range []vecmath.Point{{5.0 / 16, 11.0 / 16}, {0.5, 0.5}, {3.0 / 8, 3.0 / 8}} {
		gridFocals = append(gridFocals, Input{Focal: p, FocalID: -1})
	}
	if levels == 0 || slopes == 0 {
		t.Fatalf("grid has %d level and %d equal-slope pairs: not the degenerate set this test is about", levels, slopes)
	}
	sets = append(sets, set{"grid8", grid, gridFocals})

	// What each query sorted, so the test can show it reached the radix
	// path and crossings tied at one value, not only slices.Sort and
	// distinct values.
	longest, tie := 0, false
	releaseHook = func(st *execState) {
		longest = max(len(st.fca.up), len(st.fca.down))
		all := slices.Concat(st.fca.up, st.fca.down)
		slices.Sort(all)
		tie = len(slices.Compact(all)) < len(st.fca.up)+len(st.fca.down)
	}
	defer func() { releaseHook = nil }()
	queries, multi, radix, tied := 0, 0, 0, 0
	for _, s := range sets {
		tree := buildTree(t, s.points)
		for fi, in := range s.focals {
			for _, tau := range []int{0, 2} {
				for _, ids := range []bool{false, true} {
					in.Tree, in.Tau, in.CollectRecordIDs = tree, tau, ids
					want, err := fcaReference(in)
					if err != nil {
						t.Fatal(err)
					}
					got, err := fcaRun(in)
					if err != nil {
						t.Fatal(err)
					}
					if longest >= radixSortCutoff {
						radix++
					}
					if tie {
						tied++
					}
					want.Stats.CPUTime, got.Stats.CPUTime = 0, 0
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s focal %d (id %d) τ=%d ids=%t:\n got  %+v\n want %+v",
							s.name, fi, in.FocalID, tau, ids, got, want)
					}
					queries++
					if len(want.Regions) > 1 {
						multi++
					}
				}
			}
		}
	}
	t.Logf("%d queries agree: %d with more than one region, %d radix-sorted, %d with tied crossings", queries, multi, radix, tied)
	if multi == 0 || radix == 0 || tied == 0 {
		t.Fatalf("%d multi-region, %d radix-sorted and %d tied queries: not the coverage this test is about", multi, radix, tied)
	}
}

// TestRadixSortFloats holds the crossing sort to slices.Sort on the
// shapes FCA feeds it: uniform values in (0,1), heavy ties, values that
// share their high bits or their low bits (so those passes are skipped),
// tiny and subnormal values, and lengths either side of the cutoff.
func TestRadixSortFloats(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := []struct {
		name string
		gen  func(i int) float64
	}{
		{"uniform", func(int) float64 { return rng.Float64() }},
		{"ties", func(int) float64 { return float64(1+rng.Intn(7)) / 8 }},
		{"allsame", func(int) float64 { return 0.375 }},
		{"sharedhigh", func(int) float64 {
			return math.Float64frombits(math.Float64bits(0.6) + uint64(rng.Intn(1<<12)))
		}},
		{"sharedlow", func(int) float64 {
			return math.Float64frombits(math.Float64bits(0.6) + uint64(rng.Intn(1<<12))<<40)
		}},
		{"tiny", func(int) float64 {
			switch rng.Intn(3) {
			case 0:
				return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(100))
			case 1:
				return math.Ldexp(rng.Float64(), -1000-rng.Intn(20))
			}
			return rng.Float64() * 1e-300
		}},
		{"descending", func(i int) float64 { return 1 / float64(i+2) }},
	}
	var scratch []float64
	for _, sh := range shapes {
		for _, n := range []int{0, 1, 2, radixSortCutoff - 1, radixSortCutoff, radixSortCutoff + 1, 5000} {
			v := make([]float64, n)
			for i := range v {
				v[i] = sh.gen(i)
			}
			want := slices.Clone(v)
			slices.Sort(want)
			scratch = radixSortFloats(v, scratch)
			for i := range v {
				if math.Float64bits(v[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s n=%d: position %d holds %v, slices.Sort puts %v there", sh.name, n, i, v[i], want[i])
				}
			}
		}
	}
}

// fcaAllocBudget bounds a warm FCA query with one answer region. It
// measures 6: the Result, the query's tracker, the region list, and the
// region's box and witness — nothing per record, crossing or page.
const fcaAllocBudget = 6

// TestFCAWarmAllocations keeps FCA's crossing lists and sort out of the
// allocator: on a warm state a one-region query allocates the same on
// n = 2 000 and n = 20 000, and no more than a committed budget, so a
// per-record append that comes back fails here and not only in the
// benchmark.
func TestFCAWarmAllocations(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{2000, 20000} {
		points := dataset.Generate(dataset.IND, n, 2, 11)
		tree := buildTree(t, points)
		var in Input
		for i := 0; ; i++ {
			id := (i * 7919) % n
			in = Input{Tree: tree, Focal: points[id], FocalID: int64(id)}
			res, err := fcaRun(in) // warms every pooled buffer the query uses
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Regions) == 1 && res.Stats.IncomparableAccessed > int64(n/20) {
				break
			}
		}
		a := math.Inf(1) // the fewest of several runs, as in arena_test.go
		for i := 0; i < 8; i++ {
			a = min(a, testing.AllocsPerRun(1, func() {
				if _, err := fcaRun(in); err != nil {
					t.Fatal(err)
				}
			}))
		}
		t.Logf("n=%d focal %d: warm FCA query: %.0f allocations (budget %d)", n, in.FocalID, a, fcaAllocBudget)
		if a > fcaAllocBudget {
			t.Errorf("n=%d: warm FCA query: %.0f allocations, budget %d", n, a, fcaAllocBudget)
		}
		allocs[n] = a
	}
	if allocs[2000] != allocs[20000] {
		t.Errorf("warm FCA allocations grow with n: %.0f at n=2000, %.0f at n=20000", allocs[2000], allocs[20000])
	}
}
