package repro_test

import (
	"sort"
	"testing"

	"repro"
)

func TestTopKMatchesDirectScoring(t *testing.T) {
	ds := genDS(t, "IND", 2000, 3)
	q := []float64{0.5, 0.3, 0.2}
	for _, k := range []int{1, 5, 25, 100} {
		got, err := ds.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("k=%d: %d results", k, len(got))
		}
		// Direct scoring oracle.
		type scored struct {
			idx   int
			score float64
		}
		all := make([]scored, ds.Len())
		for i := range all {
			all[i] = scored{i, mustScore(t, ds, i, q)}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].score > all[j].score })
		prev := all[0].score + 1
		for rank, id := range got {
			s := mustScore(t, ds, int(id), q)
			if s > prev {
				t.Fatalf("k=%d: results not in descending score order", k)
			}
			prev = s
			// Scores must match the oracle's rank-th score (IDs may differ
			// only under exact ties).
			if s != all[rank].score {
				t.Fatalf("k=%d rank %d: score %g, oracle %g", k, rank, s, all[rank].score)
			}
		}
	}
}

func TestTopKErrors(t *testing.T) {
	ds := genDS(t, "IND", 100, 3)
	if _, err := ds.TopK([]float64{0.5, 0.5}, 3); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if _, err := ds.TopK([]float64{0.3, 0.3, 0.4}, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestTopKConsistentWithMaxRank(t *testing.T) {
	// At any region witness, a top-k* query must include the focal record.
	ds := genDS(t, "ANTI", 500, 3)
	focal := 77
	res, err := repro.Compute(ds, focal)
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range res.Regions {
		top, err := ds.TopK(reg.QueryVector, res.KStar)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, id := range top {
			if id == int64(focal) {
				found = true
			}
		}
		if !found {
			t.Fatalf("focal %d missing from top-%d at its own witness", focal, res.KStar)
		}
	}
}
