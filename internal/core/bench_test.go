package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pager"
	"repro/internal/rstar"
	"repro/internal/snapshot"
	"repro/internal/vecmath"
)

// BenchmarkAA answers heavy_d4's shape — IND n = 1 500, d = 4, on the
// heap — at the fixed focals heavyD4Focals in turn, on a warm query state:
// skyline expansion, quad-tree build, leaf scan and within-leaf
// enumeration. leaves/op and lps/op are the leaves a query enumerated and
// its LP calls.
func BenchmarkAA(b *testing.B) {
	points := dataset.Generate(dataset.IND, 1500, 4, 20150831)
	tree := buildTree(b, points)
	in := func(i int) Input {
		f := heavyD4Focals[i%len(heavyD4Focals)]
		return Input{Tree: tree, Focal: points[f], FocalID: int64(f)}
	}
	if _, err := aaRun(in(0)); err != nil {
		b.Fatal(err)
	}
	var leaves, lps int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := aaRun(in(i))
		if err != nil {
			b.Fatal(err)
		}
		leaves += int64(res.Stats.LeavesProcessed)
		lps += res.Stats.LPCalls
	}
	b.ReportMetric(float64(leaves)/float64(b.N), "leaves/op")
	b.ReportMetric(float64(lps)/float64(b.N), "lps/op")
}

// BenchmarkAA2DDisk answers wide_d2's mean focal (meanWideFocal) on a
// mapped tree, which decodes every page it reads, on a warm query state.
// iterations/op is the query's expansion rounds.
func BenchmarkAA2DDisk(b *testing.B) {
	points := dataset.Generate(dataset.IND, 5000, 2, 20150832)
	tree := mappedCopy(b, buildTree(b, points))
	in := Input{Tree: tree, Focal: points[meanWideFocal], FocalID: meanWideFocal}
	res, err := aa2dRun(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err = aa2dRun(in); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Stats.Iterations), "iterations/op")
}

// BenchmarkFCA answers FCA over the fixed focals (i*7919) % n, on a warm
// query state: the scan, the bucket bound, the sort of the crossings it
// keeps and the sweep. It runs the three distributions at mutate_cycle's
// n = 100 000 and IND at serve_mix's n = 2 000, on the heap; and IND at
// n = 100 000 again from a v2 snapshot image served through pager.Mapped,
// as mutate_cycle's reads after a snapshot load are, decoding every page
// it reads. ANTI, whose order curve is the flattest, keeps the most.
// zigzag is the bound's worst case: a flat order curve, where every bucket
// is kept (see zigzagDipPoints). pages/op and records/op are the pages the
// query read and the incomparable records it scanned; crossings/op and
// kept/op the crossings in (0,1) and those the bound kept.
func BenchmarkFCA(b *testing.B) {
	for _, c := range []struct {
		dist   dataset.Distribution
		n      int
		mapped bool
	}{{dataset.IND, 100000, false}, {dataset.COR, 100000, false}, {dataset.ANTI, 100000, false}, {dataset.IND, 2000, false}, {dataset.IND, 100000, true}} {
		name := fmt.Sprintf("%v/n=%d", c.dist, c.n)
		if c.mapped {
			name += "/mapped"
		}
		b.Run(name, func(b *testing.B) {
			points := dataset.Generate(c.dist, c.n, 2, 20150833)
			tree := buildTree(b, points)
			if c.mapped {
				tree = mappedSnapshot(b, tree, points)
			}
			benchFCA(b, func(i int) Input {
				id := (i * 7919) % c.n
				return Input{Tree: tree, Focal: points[id], FocalID: int64(id)}
			})
		})
	}
	b.Run("zigzag", func(b *testing.B) {
		tree := buildTree(b, zigzagDipPoints(65537))
		focal := Input{Tree: tree, Focal: vecmath.Point{0.5, 0.5}, FocalID: -1}
		benchFCA(b, func(int) Input { return focal })
	})
}

// benchFCA times fcaRun(in(i)) for i = 0, 1, … after one warm-up query.
func benchFCA(b *testing.B, in func(i int) Input) {
	if _, err := fcaRun(in(0)); err != nil {
		b.Fatal(err)
	}
	var crossings, kept int
	var pages, records int64
	releaseHook = func(st *execState) {
		kept += len(st.fca.up) + len(st.fca.down)
		crossings += st.fca.counted()
	}
	defer func() { releaseHook = nil }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fcaRun(in(i))
		if err != nil {
			b.Fatal(err)
		}
		pages += res.Stats.IO
		records += res.Stats.IncomparableAccessed
	}
	b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
	b.ReportMetric(float64(records)/float64(b.N), "records/op")
	b.ReportMetric(float64(crossings)/float64(b.N), "crossings/op")
	b.ReportMetric(float64(kept)/float64(b.N), "kept/op")
}

// mappedSnapshot encodes tree and its points as a v2 snapshot image and
// restores the tree over the image's pages through pager.Mapped, as a
// loaded snapshot file is served: the same tree, decoding every page it
// reads.
func mappedSnapshot(b testing.TB, tree *rstar.Tree, points []vecmath.Point) *rstar.Tree {
	b.Helper()
	snap := &snapshot.Snapshot{
		Dim: tree.Dim(), Count: len(points), PageSize: tree.Source().PageSize(),
		Root: int64(tree.Root()), Height: tree.Height(),
	}
	for _, p := range points {
		snap.Points = append(snap.Points, p...)
	}
	tree.Source().ForEachPage(func(id pager.PageID, data []byte) error {
		snap.Pages = append(snap.Pages, snapshot.Page{ID: int64(id), Data: data})
		return nil
	})
	img, err := snapshot.EncodeV2(snap)
	if err != nil {
		b.Fatal(err)
	}
	v, err := snapshot.Open(img)
	if err != nil {
		b.Fatal(err)
	}
	pages := make([]pager.MappedPage, v.NumPages())
	for i := range pages {
		id, data := v.Page(i)
		pages[i] = pager.MappedPage{ID: pager.PageID(id), Data: data}
	}
	src, err := pager.NewMapped(v.PageSize, pages)
	if err != nil {
		b.Fatal(err)
	}
	ro, err := rstar.RestoreFrom(src, v.Dim, pager.PageID(v.Root), v.Height, int64(v.Count), rstar.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return ro
}

// zigzagDipPoints returns m records, m odd, incomparable with (0.5, 0.5),
// whose crossings with it lie at t = k/(m+1), k = 1..m, and alternate: a
// record above it drops below, then one below rises above. p's order so
// zigzags between two values, save one dip at the middle, where two drops
// come before two rises: one region at τ = 0, and no bucket the bound can
// prune. Each record lies at a random distance along its direction from
// p, so the index scans the crossings in no particular order.
func zigzagDipPoints(m int) []vecmath.Point {
	rng := rand.New(rand.NewSource(1))
	pts := make([]vecmath.Point, m)
	for k := range pts {
		t := float64(k+1) / float64(m+1)
		down := k%2 == 0
		if mid := m / 2 &^ 1; k == mid+1 || k == mid+2 {
			down = !down
		}
		// For any s in (0, 0.5], (0.5 − (1−t)s, 0.5 + ts) starts above p
		// and crosses it at t; (0.5 + (1−t)s, 0.5 − ts) starts below.
		s := 0.05 + 0.45*rng.Float64()
		if down {
			pts[k] = vecmath.Point{0.5 - (1-t)*s, 0.5 + t*s}
		} else {
			pts[k] = vecmath.Point{0.5 + (1-t)*s, 0.5 - t*s}
		}
	}
	return pts
}
