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
// per-record map the sweep kept under CollectRecordIDs. It scans the tree
// with the recursive reference walk (refScanIncompNode), not Descend, so
// TestFCAMatchesReference, holding fcaRun to it whole Result for whole
// Result, compares two scans as well as two sweeps.
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
	err = refScanIncompNode(ctx, rd, rd.Root(), p, in.FocalID, func(r vecmath.Point, id int64) error {
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
			q := vecmath.Point{reg.Witness[0], 1 - reg.Witness[0]}
			ps := p.Dot(q)
			err = refScanIncompNode(ctx, rd, rd.Root(), p, in.FocalID, func(r vecmath.Point, id int64) error {
				if r.Dot(q) > ps {
					reg.OutrankIDs = append(reg.OutrankIDs, id)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			slices.Sort(reg.OutrankIDs)
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

// zigzagPoints is a focal record (0.5, 0.5) and 66 records whose score
// lines cross its own at q1 = i/64, i = 1..63, the odd ones dropping below
// it and the even ones rising above, and a second, dropping record at
// 1/4, 1/2 and 3/4. The focal's order only zigzags, so every bucket of the
// sweep's four is within reach of the least order and none is pruned,
// and the tied crossings at 1/4, 1/2 and 3/4 lie exactly on bucket edges.
func zigzagPoints() []vecmath.Point {
	pts := []vecmath.Point{{0.5, 0.5}}
	for i := 1; i < 64; i++ {
		t := float64(i) / 64
		if i%2 == 0 {
			pts = append(pts, vecmath.Point{0.75 - t/4, 0.5 - t/4})
		}
		if i%2 == 1 || i%16 == 0 {
			pts = append(pts, vecmath.Point{0.25 + t/4, 0.5 + t/4})
		}
	}
	return pts
}

// counted is the number of crossings the last query's prune counted, kept
// or not: the rises less the drops, plus twice the drops.
func (f *fcaState) counted() int {
	m := f.start[len(f.drops)] - f.start[0]
	for _, d := range f.drops {
		m += 2 * d
	}
	return m
}

// TestFCAMatchesReference: the leaf-kernel scan and the pooled sweep
// answer exactly as the reference does — the pages read and the
// incomparable records first, then regions, boxes, witnesses, orders,
// OutrankIDs and every Stats field but CPUTime — on the three
// distributions, on a grid full of tied crossings, on a zigzag order curve
// whose buckets the bound cannot prune and on what-if focals, at τ = 0 and
// 2, with and without record IDs.
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

	zig := zigzagPoints()
	sets = append(sets, set{"zigzag", zig, []Input{
		{Focal: zig[0], FocalID: 0},
		{Focal: vecmath.Point{0.5, 0.5}, FocalID: -1},
		{Focal: vecmath.Point{0.5, 0.5 + 1.0/256}, FocalID: -1},
	}})

	// What each query kept after the bucket bound, so the test can show it
	// pruned some queries and kept every bucket of others, kept a crossing
	// on a bucket edge (where the sweep restarts the order) and tied
	// crossings at one value.
	buckets, pruned, edge, tie := 0, false, false, false
	releaseHook = func(st *execState) {
		f := &st.fca
		buckets = len(f.drops)
		all := slices.Concat(f.up, f.down)
		pruned = len(all) < f.counted()
		edge = false
		for _, t := range all {
			j := t * float64(buckets)
			edge = edge || (buckets > 1 && j == math.Trunc(j))
		}
		slices.Sort(all)
		tie = len(slices.Compact(all)) < len(f.up)+len(f.down)
	}
	defer func() { releaseHook = nil }()
	queries, multi, prunes, whole, edges, tied := 0, 0, 0, 0, 0, 0
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
					switch {
					case pruned:
						prunes++
					case buckets > 1:
						whole++
					}
					if edge {
						edges++
					}
					if tie {
						tied++
					}
					if g, w := got.Stats, want.Stats; g.IO != w.IO || g.IncomparableAccessed != w.IncomparableAccessed {
						t.Fatalf("%s focal %d τ=%d ids=%t: %d pages and %d incomparable records, reference %d and %d",
							s.name, fi, tau, ids, g.IO, g.IncomparableAccessed, w.IO, w.IncomparableAccessed)
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
	t.Logf("%d queries agree: %d with more than one region, %d that pruned a bucket, %d that kept all of several, %d with a crossing on a bucket edge, %d with tied crossings",
		queries, multi, prunes, whole, edges, tied)
	if multi == 0 || prunes == 0 || whole == 0 || edges == 0 || tied == 0 {
		t.Fatalf("%d multi-region, %d pruned, %d unpruned multi-bucket, %d bucket-edge and %d tied queries: not the coverage this test is about",
			multi, prunes, whole, edges, tied)
	}
}

// fcaInstance is an FCA query on the k/16 grid, for FuzzFCAMatchesReference.
type fcaInstance struct {
	points   []vecmath.Point
	focal    vecmath.Point
	focalIdx int // −1 for a what-if focal
	tau      int
	ids      bool // CollectRecordIDs
}

// decodeFCAInstance reads an instance from fuzz bytes: n − 1, a flags byte
// (bits 0–1 τ, bit 2 CollectRecordIDs, bit 3 a what-if focal whose
// coordinates follow the records), the focal's index mod n, then the 2n
// record coordinates, each byte b giving (b mod 17)/16. n reaches 256, so
// a query can have far more than the 32 crossings at which the bucket
// bound starts to prune. It reports false when the bytes run out.
func decodeFCAInstance(data []byte) (fcaInstance, bool) {
	if len(data) < 3 {
		return fcaInstance{}, false
	}
	n := 1 + int(data[0])
	flags := data[1]
	in := fcaInstance{focalIdx: int(data[2]) % n, tau: int(flags & 3), ids: flags&4 != 0}
	need := 2 * n
	if flags&8 != 0 {
		in.focalIdx = -1
		need += 2
	}
	coords := data[3:]
	if len(coords) < need {
		return fcaInstance{}, false
	}
	at := func(i int) vecmath.Point {
		return vecmath.Point{float64(coords[2*i]%17) / 16, float64(coords[2*i+1]%17) / 16}
	}
	for i := 0; i < n; i++ {
		in.points = append(in.points, at(i))
	}
	if in.focalIdx < 0 {
		in.focal = at(n)
	} else {
		in.focal = in.points[in.focalIdx]
	}
	return in, true
}

// encode is decodeFCAInstance's inverse for coordinates on the grid.
func (in fcaInstance) encode() []byte {
	flags := byte(in.tau)
	if in.ids {
		flags |= 4
	}
	focal, pts := byte(in.focalIdx), in.points
	if in.focalIdx < 0 {
		flags |= 8
		focal, pts = 0, append(pts[:len(pts):len(pts)], in.focal)
	}
	out := []byte{byte(len(in.points) - 1), flags, focal}
	for _, p := range pts {
		out = append(out, byte(p[0]*16), byte(p[1]*16))
	}
	return out
}

// fcaSeeds are FuzzFCAMatchesReference's seed instances: random grid
// records with an in-dataset focal at τ = 0 and 1, a what-if focal at τ = 3
// with record IDs, a lone record, and an anti-diagonal whose every record
// crosses the what-if focal (0.5, 0.5) at q1 = 1/2, a bucket edge whenever
// the bucket count is even.
func fcaSeeds() []fcaInstance {
	rng := rand.New(rand.NewSource(40))
	grid := func(n int) []vecmath.Point {
		pts := make([]vecmath.Point, n)
		for i := range pts {
			pts[i] = vecmath.Point{float64(rng.Intn(17)) / 16, float64(rng.Intn(17)) / 16}
		}
		return pts
	}
	seeds := []fcaInstance{
		{points: grid(256), focalIdx: 17},
		{points: grid(96), focalIdx: 5, tau: 1, ids: true},
		{points: grid(200), focal: vecmath.Point{0.5, 0.5}, focalIdx: -1, tau: 3, ids: true},
		{points: grid(1), focalIdx: 0},
	}
	diag := grid(64)
	for k := 0; k <= 16; k++ {
		if k != 8 {
			diag = append(diag, vecmath.Point{float64(k) / 16, float64(16-k) / 16})
		}
	}
	seeds = append(seeds, fcaInstance{points: diag, focal: vecmath.Point{0.5, 0.5}, focalIdx: -1, tau: 2})
	for i := range seeds {
		if s := &seeds[i]; s.focalIdx >= 0 {
			s.focal = s.points[s.focalIdx]
		}
	}
	return seeds
}

// FuzzFCAMatchesReference decodes FCA queries on the k/16 grid (n ≤ 256,
// in-dataset or what-if focal, τ 0–3, with or without record IDs) and
// holds fcaRun to fcaReference, whole Result for whole Result but CPUTime:
// the pages read and incomparable records first.
func FuzzFCAMatchesReference(f *testing.F) {
	for i, in := range fcaSeeds() {
		if got, ok := decodeFCAInstance(in.encode()); !ok || fmt.Sprint(got) != fmt.Sprint(in) {
			f.Fatalf("seed %d does not round-trip: %v", i, got)
		}
		f.Add(in.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fi, ok := decodeFCAInstance(data)
		if !ok {
			return
		}
		in := Input{
			Tree:  buildTree(t, fi.points),
			Focal: fi.focal, FocalID: int64(fi.focalIdx),
			Tau: fi.tau, CollectRecordIDs: fi.ids,
		}
		want, err := fcaReference(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fcaRun(in)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := got.Stats, want.Stats; g.IO != w.IO || g.IncomparableAccessed != w.IncomparableAccessed {
			t.Fatalf("%+v: %d pages and %d incomparable records, reference %d and %d",
				fi, g.IO, g.IncomparableAccessed, w.IO, w.IncomparableAccessed)
		}
		want.Stats.CPUTime, got.Stats.CPUTime = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v:\n got  %+v\n want %+v", fi, got, want)
		}
	})
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
