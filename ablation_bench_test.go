package repro_test

import (
	"fmt"
	"testing"

	"repro"
)

// BenchmarkAblation_QuadThreshold sweeps the quad-tree leaf split threshold
// |Pl|max — the paper's main tuning knob (Section 5.1): small thresholds
// yield many shallow-enumeration leaves, large thresholds few leaves with
// expensive within-leaf searches.
func BenchmarkAblation_QuadThreshold(b *testing.B) {
	ds, err := repro.GenerateDataset("IND", 1000, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, threshold := range []int{6, 12, 24, 48} {
		b.Run(fmt.Sprintf("maxPartial=%d", threshold), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				focal := (i * 131) % ds.Len()
				_, err := repro.Compute(ds, focal,
					repro.WithAlgorithm(repro.AA),
					repro.WithQuadTree(threshold, 0))
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_AAvsBA isolates the paper's central design choice —
// implicit subsumption (AA) versus materialising every incomparable
// half-space (BA) — on identical inputs.
func BenchmarkAblation_AAvsBA(b *testing.B) {
	ds, err := repro.GenerateDataset("IND", 800, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, alg := range []repro.Algorithm{repro.AA, repro.BA} {
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := repro.Compute(ds, (i*37)%ds.Len(), repro.WithAlgorithm(alg)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Storage compares the paper's two deployment scenarios
// on the same queries. They are chosen by storage: a heap dataset serves
// the index from its decoded node cache (main memory), and the same
// dataset loaded from an mmap'd snapshot decodes every page it reads
// (disk-resident). I/O counts are identical by construction.
func BenchmarkAblation_Storage(b *testing.B) {
	heap, err := repro.GenerateDataset("IND", 2000, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	mapped, err := repro.LoadSnapshotFile(writeV2File(b, heap))
	if err != nil {
		b.Fatal(err)
	}
	defer mapped.Close()
	for _, ds := range []*repro.Dataset{heap, mapped} {
		b.Run(ds.Storage().Mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := repro.Compute(ds, (i*53)%ds.Len()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
