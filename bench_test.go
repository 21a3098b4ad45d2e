// Benchmarks mirroring every table and figure of the paper's evaluation
// (Section 8). Each benchmark runs a scaled-down version of the experiment
// so `go test -bench=.` finishes in minutes; cmd/paperbench regenerates the
// full tables (`-scale default`) or the paper's own parameters
// (`-scale paper`).
package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/dataset"
)

// benchQueries runs MaxRank for a fixed set of focal records, one query
// at a time on the benchmark goroutine.
func benchQueries(b *testing.B, ds *repro.Dataset, opts ...repro.Option) {
	b.Helper()
	eng := benchEngine(b, ds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		focal := (i * 7919) % ds.Len()
		if _, err := eng.Query(context.Background(), focal, opts...); err != nil {
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
		// R* insertion through Apply, onto a one-record dataset.
		ops := make([]repro.Op, 0, 1999)
		for _, row := range rows[1:2000] {
			ops = append(ops, repro.InsertOp(row))
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			first, err := repro.NewDataset(rows[:1])
			if err != nil {
				b.Fatal(err)
			}
			if _, err := first.Apply(ops); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkApply measures the mutation subsystem: one batch of point
// inserts/deletes producing a new engine version (a fork of the parent's
// index and record table, incremental R* updates, and a finalize that
// writes only the nodes the batch changed), at two dataset sizes and two
// batch shapes, plus the mutate_cycle workload's shape: 32 inserts and 32
// random deletes on IND n = 100 000, d = 2. Ops/sec here is versions/sec;
// allocs/op and B/op track what a version costs beyond its batch. The
// successor's hash, which Apply starts on a goroutine of its own, is
// waited for with the timer stopped, so it does not compete with the next
// batch; the mutate_cycle shape's ack case times it too: Apply and then
// Fingerprint, what a write waits for before it is acknowledged.
func BenchmarkApply(b *testing.B) {
	ctx := context.Background()
	run := func(name string, eng *repro.Engine, ops []repro.Op, ack bool) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				next, err := eng.Apply(ctx, ops)
				if err != nil {
					b.Fatal(err)
				}
				if !ack {
					b.StopTimer()
				}
				next.Dataset().Fingerprint()
				b.StartTimer()
			}
		})
	}
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
			run(fmt.Sprintf("n=%d/ops=%d", n, batch*2), eng, ops, false)
		}
	}
	ds, err := repro.GenerateDataset("IND", 100000, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := repro.NewEngine(ds)
	if err != nil {
		b.Fatal(err)
	}
	ops := mutateCycleBatch(rand.New(rand.NewSource(1)), ds.Len(), ds.Dim())
	run("mutate_cycle/n=100000/d=2/ops=64", eng, ops, false)
	run("mutate_cycle/n=100000/d=2/ops=64/ack", eng, ops, true)
}

// mutateCycleBatch draws a batch of the mutate_cycle workload's shape on n
// records: 32 inserts of uniform points and 32 distinct random deletes.
func mutateCycleBatch(rng *rand.Rand, n, dim int) []repro.Op {
	var ops []repro.Op
	for k := 0; k < 32; k++ {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		ops = append(ops, repro.InsertOp(p))
	}
	for _, i := range rng.Perm(n)[:32] {
		ops = append(ops, repro.DeleteOp(i))
	}
	return ops
}
