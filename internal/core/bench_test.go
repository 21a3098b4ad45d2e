package core

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
)

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
// n = 100 000 and IND at serve_mix's n = 2 000; ANTI, whose order curve is
// the flattest, keeps the most. crossings/op and kept/op are the crossings
// in (0,1) and those the bound kept, per query.
func BenchmarkFCA(b *testing.B) {
	for _, c := range []struct {
		dist dataset.Distribution
		n    int
	}{{dataset.IND, 100000}, {dataset.COR, 100000}, {dataset.ANTI, 100000}, {dataset.IND, 2000}} {
		b.Run(fmt.Sprintf("%v/n=%d", c.dist, c.n), func(b *testing.B) {
			points := dataset.Generate(c.dist, c.n, 2, 20150833)
			tree := buildTree(b, points)
			in := func(i int) Input {
				id := (i * 7919) % c.n
				return Input{Tree: tree, Focal: points[id], FocalID: int64(id)}
			}
			if _, err := fcaRun(in(0)); err != nil {
				b.Fatal(err)
			}
			var crossings, kept int
			releaseHook = func(st *execState) {
				kept += len(st.fca.up) + len(st.fca.down)
				crossings += st.fca.counted()
			}
			defer func() { releaseHook = nil }()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fcaRun(in(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(crossings)/float64(b.N), "crossings/op")
			b.ReportMetric(float64(kept)/float64(b.N), "kept/op")
		})
	}
}
