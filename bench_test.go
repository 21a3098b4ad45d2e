// Benchmarks mirroring every table and figure of the paper's evaluation
// (Section 8). Each benchmark runs a scaled-down version of the experiment
// so `go test -bench=.` finishes in minutes; cmd/paperbench regenerates the
// full tables (`-scale default`) or the paper's own parameters
// (`-scale paper`).
package repro_test

import (
	"context"
	"fmt"
	"testing"

	"repro"
	"repro/internal/dataset"
)

// benchQueries runs MaxRank for a fixed set of focal records, one query
// at a time on the benchmark goroutine.
func benchQueries(b *testing.B, ds *repro.Dataset, opts ...repro.Option) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		focal := (i * 7919) % ds.Len()
		if _, err := repro.Compute(ds, focal, opts...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8_AAvsBA covers Figure 8(a,b): AA versus BA as n grows
// (IND, d = 4). BA is only run at the smallest size, as in the paper.
func BenchmarkFig8_AAvsBA(b *testing.B) {
	for _, n := range []int{500, 1000, 2000} {
		ds, err := repro.GenerateDataset("IND", n, 4, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("AA/n=%d", n), func(b *testing.B) {
			benchQueries(b, ds, repro.WithAlgorithm(repro.AA))
		})
		if n <= 500 {
			b.Run(fmt.Sprintf("BA/n=%d", n), func(b *testing.B) {
				benchQueries(b, ds, repro.WithAlgorithm(repro.BA))
			})
		}
	}
}

// BenchmarkFig8_AA_Distributions covers Figure 8(c,d,e,f): AA across the
// three benchmark distributions.
func BenchmarkFig8_AA_Distributions(b *testing.B) {
	for _, dist := range []string{"IND", "COR", "ANTI"} {
		ds, err := repro.GenerateDataset(dist, 1000, 4, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(dist, func(b *testing.B) {
			benchQueries(b, ds, repro.WithAlgorithm(repro.AA))
		})
	}
}

// BenchmarkFig9_Dimensionality covers Figure 9 and Table 3: the effect of
// dimensionality on AA (IND).
func BenchmarkFig9_Dimensionality(b *testing.B) {
	for _, c := range []struct{ d, n int }{{2, 1000}, {3, 1000}, {4, 1000}, {5, 300}} {
		ds, err := repro.GenerateDataset("IND", c.n, c.d, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("d=%d/n=%d", c.d, c.n), func(b *testing.B) {
			benchQueries(b, ds, repro.WithAlgorithm(repro.AA))
		})
	}
}

// BenchmarkTable4_RealDatasets covers Table 4: AA on the five real-dataset
// proxies (cardinalities scaled down; see DESIGN.md §7).
func BenchmarkTable4_RealDatasets(b *testing.B) {
	for _, rp := range dataset.RealProxies(0.001) {
		pts := rp.Generate(1)
		rows := make([][]float64, len(pts))
		for i, p := range pts {
			rows[i] = p
		}
		ds, err := repro.NewDataset(rows)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(rp.Name, func(b *testing.B) {
			benchQueries(b, ds, repro.WithAlgorithm(repro.AA))
		})
	}
}

// BenchmarkFig10_IMaxRank covers Figure 10: iMaxRank cost versus τ.
func BenchmarkFig10_IMaxRank(b *testing.B) {
	ds, err := repro.GenerateDataset("IND", 1000, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, tau := range []int{0, 1, 2, 3, 4, 5} {
		b.Run(fmt.Sprintf("tau=%d", tau), func(b *testing.B) {
			benchQueries(b, ds, repro.WithAlgorithm(repro.AA), repro.WithTau(tau))
		})
	}
}

// BenchmarkFig11_D2 covers Figure 11: FCA versus the specialised AA at
// d = 2 on the three distributions.
func BenchmarkFig11_D2(b *testing.B) {
	for _, dist := range []string{"IND", "COR", "ANTI"} {
		ds, err := repro.GenerateDataset(dist, 5000, 2, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("AA/"+dist, func(b *testing.B) {
			benchQueries(b, ds, repro.WithAlgorithm(repro.AA))
		})
		b.Run("FCA/"+dist, func(b *testing.B) {
			benchQueries(b, ds, repro.WithAlgorithm(repro.FCA))
		})
	}
}

// BenchmarkFig12_ScoreRatio covers the appendix experiment (Figure 12):
// the MaxScore/MinScore collapse as d grows.
func BenchmarkFig12_ScoreRatio(b *testing.B) {
	for _, d := range []int{2, 6, 12, 20} {
		pts := dataset.Generate(dataset.IND, 10000, d, 1)
		q := make([]float64, d)
		for i := range q {
			q[i] = 1 / float64(d)
		}
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				maxS, minS := -1.0, 1e18
				for _, p := range pts {
					var s float64
					for j, v := range p {
						s += v * q[j]
					}
					if s > maxS {
						maxS = s
					}
					if s < minS {
						minS = s
					}
				}
				if maxS/minS < 1 {
					b.Fatal("impossible ratio")
				}
			}
		})
	}
}

// BenchmarkSubstrates exercises the main substrate operations in isolation,
// giving the ablation-style numbers DESIGN.md calls out (index build, BBS
// skyline, dominator counting).
func BenchmarkSubstrates(b *testing.B) {
	ds, err := repro.GenerateDataset("IND", 20000, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([][]float64, ds.Len())
	for i := range rows {
		rows[i] = mustPoint(b, ds, i)
	}
	b.Run("BulkLoad/n=20000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := repro.NewDataset(rows); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("InsertBuild/n=2000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := repro.NewDataset(rows[:2000], repro.WithInsertBuild(true)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkApply measures the mutation subsystem: one batch of point
// inserts/deletes producing a new engine version (page-image copy +
// incremental R* updates + finalize), at two dataset sizes and two batch
// shapes. Ops/sec here is versions/sec; allocs/op tracks the copy cost.
func BenchmarkApply(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{2000, 10000} {
		ds, err := repro.GenerateDataset("IND", n, 3, 1)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := repro.NewEngine(ds)
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range []int{1, 64} {
			ops := make([]repro.Op, 0, batch*2)
			for k := 0; k < batch; k++ {
				ops = append(ops, repro.DeleteOp(k*7%n))
				ops = append(ops, repro.InsertOp([]float64{
					float64(k%97) / 97, float64(k%89) / 89, float64(k%83) / 83,
				}))
			}
			b.Run(fmt.Sprintf("n=%d/ops=%d", n, batch*2), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Apply(ctx, ops); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
