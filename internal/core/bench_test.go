package core

import (
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

// BenchmarkFCA answers FCA on IND n = 100 000, d = 2, over the fixed
// focals (i*7919) % n, on a warm query state: the crossing sort and the
// sweep, with the scan they feed on.
func BenchmarkFCA(b *testing.B) {
	const n = 100000
	points := dataset.Generate(dataset.IND, n, 2, 20150833)
	tree := buildTree(b, points)
	in := func(i int) Input {
		id := (i * 7919) % n
		return Input{Tree: tree, Focal: points[id], FocalID: int64(id)}
	}
	if _, err := fcaRun(in(0)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fcaRun(in(i)); err != nil {
			b.Fatal(err)
		}
	}
}
