package repro_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro"
)

func genDS(t testing.TB, dist string, n, d int, opts ...repro.DatasetOption) *repro.Dataset {
	t.Helper()
	ds, err := repro.GenerateDataset(dist, n, d, 12345, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// mustPoint / mustScore / mustRank unwrap the error-returning dataset
// accessors for test sites that pass known-valid arguments.
func mustPoint(t testing.TB, ds *repro.Dataset, i int) []float64 {
	t.Helper()
	p, err := ds.Point(i)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustScore(t testing.TB, ds *repro.Dataset, i int, q []float64) float64 {
	t.Helper()
	s, err := ds.Score(i, q)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustRank(t testing.TB, ds *repro.Dataset, rec, q []float64) int {
	t.Helper()
	r, err := ds.RankOf(rec, q)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestComputeAgainstValidate(t *testing.T) {
	ds := genDS(t, "IND", 400, 3)
	for _, alg := range []repro.Algorithm{repro.Auto, repro.BA, repro.AA} {
		res, err := repro.Compute(ds, 7, repro.WithAlgorithm(alg))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if err := repro.Validate(ds, 7, res); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Stats.Algorithm != alg && alg != repro.Auto {
			t.Fatalf("stats report %v, want %v", res.Stats.Algorithm, alg)
		}
	}
}

// TestValidateRejectsTiedWitness: at q1 = 0.5 the focal (0.5, 0.5) ties
// both (0.75, 0.25) and (0.25, 0.75), so a region with that witness lies
// in no open cell, whatever rank it claims. A witness inside a cell passes.
func TestValidateRejectsTiedWitness(t *testing.T) {
	ds, err := repro.NewDataset([][]float64{{0.75, 0.25}, {0.25, 0.75}, {0.5, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	result := func(q1 float64, rank int) *repro.Result {
		return &repro.Result{KStar: rank, MinOrder: rank - 1, Regions: []repro.Region{{
			Rank: rank, Order: rank - 1, Witness: []float64{q1}, QueryVector: []float64{q1, 1 - q1},
		}}}
	}
	if err := repro.Validate(ds, 2, result(0.5, 1)); err == nil || !strings.Contains(err.Error(), "ties") {
		t.Fatalf("tied witness: Validate = %v, want a tie error", err)
	}
	if err := repro.Validate(ds, 2, result(0.25, 2)); err != nil {
		t.Fatalf("witness inside a cell: %v", err)
	}
}

func TestAlgorithmsAgreeOnKStar(t *testing.T) {
	ds := genDS(t, "ANTI", 300, 2)
	var ks []int
	for _, alg := range []repro.Algorithm{repro.FCA, repro.BA, repro.AA} {
		res, err := repro.Compute(ds, 42, repro.WithAlgorithm(alg))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		ks = append(ks, res.KStar)
	}
	if ks[0] != ks[1] || ks[1] != ks[2] {
		t.Fatalf("k* disagreement: %v", ks)
	}
}

func TestComputeForWhatIf(t *testing.T) {
	ds := genDS(t, "IND", 300, 3)
	res, err := repro.ComputeFor(ds, []float64{0.95, 0.95, 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if res.KStar != 1 {
		t.Fatalf("a near-ideal record should reach rank 1, got %d", res.KStar)
	}
	if _, err := repro.ComputeFor(ds, []float64{0.5}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func TestTauWidensRegions(t *testing.T) {
	ds := genDS(t, "IND", 250, 3)
	base, err := repro.Compute(ds, 10)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := repro.Compute(ds, 10, repro.WithTau(3))
	if err != nil {
		t.Fatal(err)
	}
	if wide.KStar != base.KStar {
		t.Fatalf("tau changed k*: %d vs %d", wide.KStar, base.KStar)
	}
	if len(wide.Regions) < len(base.Regions) {
		t.Fatalf("tau=3 gave fewer regions (%d) than tau=0 (%d)",
			len(wide.Regions), len(base.Regions))
	}
	for _, reg := range wide.Regions {
		if reg.Rank < wide.KStar || reg.Rank > wide.KStar+3 {
			t.Fatalf("region rank %d outside [k*, k*+3]", reg.Rank)
		}
	}
	if err := repro.Validate(ds, 10, wide); err != nil {
		t.Fatal(err)
	}
}

func TestOutrankIDs(t *testing.T) {
	ds := genDS(t, "IND", 200, 3)
	res, err := repro.Compute(ds, 3, repro.WithOutrankIDs(true))
	if err != nil {
		t.Fatal(err)
	}
	focal := mustPoint(t, ds, 3)
	for _, reg := range res.Regions {
		if len(reg.OutrankIDs) != reg.Order {
			t.Fatalf("region lists %d outranking records, order is %d",
				len(reg.OutrankIDs), reg.Order)
		}
		// Direct check: each listed record scores above the focal record at
		// the witness preference.
		fs := mustScore(t, ds, 3, reg.QueryVector)
		_ = fs
		for _, id := range reg.OutrankIDs {
			if mustScore(t, ds, int(id), reg.QueryVector) <= mustScore(t, ds, 3, reg.QueryVector) {
				t.Fatalf("record %d listed but does not outrank at witness", id)
			}
		}
		_ = focal
	}
}

func TestRegionContains(t *testing.T) {
	ds := genDS(t, "IND", 150, 3)
	res, err := repro.Compute(ds, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range res.Regions {
		if !reg.Contains(reg.Witness, 1e-9) {
			t.Fatal("region does not contain its own witness")
		}
	}
}

func TestDatasetValidation(t *testing.T) {
	if _, err := repro.NewDataset(nil); err == nil {
		t.Fatal("empty dataset accepted")
	}
	if _, err := repro.NewDataset([][]float64{{1}}); err == nil {
		t.Fatal("1-d dataset accepted")
	}
	if _, err := repro.NewDataset([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged dataset accepted")
	}
	if _, err := repro.GenerateDataset("XXX", 10, 2, 1); err == nil {
		t.Fatal("unknown distribution accepted")
	}
	if _, err := repro.GenerateDataset("IND", 0, 2, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	ds := genDS(t, "IND", 50, 2)
	if _, err := repro.Compute(ds, -1); err == nil {
		t.Fatal("negative focal accepted")
	}
	if _, err := repro.Compute(ds, 50); err == nil {
		t.Fatal("out-of-range focal accepted")
	}
	if _, err := repro.Compute(ds, 0, repro.WithAlgorithm(repro.FCA)); err != nil {
		t.Fatalf("FCA at d=2 should work: %v", err)
	}
	ds3 := genDS(t, "IND", 50, 3)
	if _, err := repro.Compute(ds3, 0, repro.WithAlgorithm(repro.FCA)); err == nil {
		t.Fatal("FCA at d=3 accepted")
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, tc := range []struct {
		name string
		want repro.Algorithm
	}{
		{"auto", repro.Auto}, {"Auto", repro.Auto}, {"AUTO", repro.Auto}, {"aUtO", repro.Auto},
		{"fca", repro.FCA}, {"FCA", repro.FCA}, {"Fca", repro.FCA},
		{"ba", repro.BA}, {"BA", repro.BA}, {"bA", repro.BA},
		{"aa", repro.AA}, {"AA", repro.AA}, {"Aa", repro.AA},
	} {
		got, err := repro.ParseAlgorithm(tc.name)
		if err != nil || got != tc.want {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	for _, bad := range []string{"zzz", "", "fca2", "a a", "br ute"} {
		if _, err := repro.ParseAlgorithm(bad); err == nil {
			t.Fatalf("ParseAlgorithm(%q) accepted", bad)
		}
	}
	if !strings.Contains(repro.AA.String(), "AA") {
		t.Fatal("String() broken")
	}
}

// TestAlgorithmStringParseRoundTrip pins String <-> Parse as inverses for
// every declared Algorithm, in both original and folded case.
func TestAlgorithmStringParseRoundTrip(t *testing.T) {
	for _, a := range []repro.Algorithm{repro.Auto, repro.FCA, repro.BA, repro.AA} {
		for _, name := range []string{
			a.String(),
			strings.ToLower(a.String()),
			strings.ToUpper(a.String()),
		} {
			got, err := repro.ParseAlgorithm(name)
			if err != nil {
				t.Fatalf("ParseAlgorithm(%q) failed: %v", name, err)
			}
			if got != a {
				t.Fatalf("round trip %v -> %q -> %v", a, name, got)
			}
		}
	}
}

func TestInsertBuildMatchesBulk(t *testing.T) {
	// The same data indexed by R* insertion vs STR bulk loading must give
	// identical query answers.
	pts := make([][]float64, 0, 300)
	dsBulk := genDS(t, "COR", 300, 3)
	for i := 0; i < dsBulk.Len(); i++ {
		pts = append(pts, mustPoint(t, dsBulk, i))
	}
	dsIns, err := repro.NewDataset(pts, repro.WithInsertBuild(true))
	if err != nil {
		t.Fatal(err)
	}
	for _, focal := range []int{0, 50, 299} {
		a, err := repro.Compute(dsBulk, focal)
		if err != nil {
			t.Fatal(err)
		}
		b, err := repro.Compute(dsIns, focal)
		if err != nil {
			t.Fatal(err)
		}
		if a.KStar != b.KStar || a.Dominators != b.Dominators {
			t.Fatalf("focal %d: bulk (k*=%d) vs insert (k*=%d) disagree", focal, a.KStar, b.KStar)
		}
	}
}

func TestIOAccounting(t *testing.T) {
	ds := genDS(t, "IND", 2000, 3)
	ds.ResetIO()
	if ds.IOReads() != 0 {
		t.Fatal("reset did not zero IO")
	}
	res, err := repro.Compute(ds, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.IO <= 0 {
		t.Fatal("query reported no I/O")
	}
	if ds.IOReads() < res.Stats.IO {
		t.Fatal("dataset counter below query counter")
	}
}

func TestRankOfConsistency(t *testing.T) {
	ds := genDS(t, "IND", 100, 3)
	res, err := repro.Compute(ds, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) == 0 {
		t.Fatal("no regions")
	}
	q := res.Regions[0].QueryVector
	if got := mustRank(t, ds, mustPoint(t, ds, 11), q); got != res.KStar {
		t.Fatalf("RankOf = %d, k* = %d", got, res.KStar)
	}
}

// TestNonFiniteRejected: NaN / ±Inf coordinates must fail at dataset
// construction and at what-if query time — a single NaN silently poisons
// LP feasibility, score ordering and the content fingerprint otherwise.
func TestNonFiniteRejected(t *testing.T) {
	bad := [][][]float64{
		{{0.1, 0.2}, {math.NaN(), 0.3}},
		{{0.1, 0.2}, {0.3, math.Inf(1)}},
		{{math.Inf(-1), 0.2}, {0.3, 0.4}},
	}
	for i, rows := range bad {
		if _, err := repro.NewDataset(rows); err == nil {
			t.Fatalf("case %d: non-finite dataset accepted", i)
		}
	}
	ds := genDS(t, "IND", 50, 3)
	eng, err := repro.NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	for i, focal := range [][]float64{
		{math.NaN(), 0.5, 0.5},
		{0.5, math.Inf(1), 0.5},
		{0.5, 0.5, math.Inf(-1)},
	} {
		_, err := eng.QueryPoint(context.Background(), focal)
		if err == nil {
			t.Fatalf("case %d: non-finite what-if focal accepted", i)
		}
		if !errors.Is(err, repro.ErrBadQuery) {
			t.Fatalf("case %d: error %v does not wrap ErrBadQuery", i, err)
		}
	}
}

// TestAccessorErrors: Point, Score and RankOf fail cleanly (ErrBadQuery)
// on out-of-range indexes and dimensionality mismatches instead of
// panicking.
func TestAccessorErrors(t *testing.T) {
	ds := genDS(t, "IND", 10, 3)
	if _, err := ds.Point(-1); !errors.Is(err, repro.ErrBadQuery) {
		t.Fatalf("Point(-1): %v", err)
	}
	if _, err := ds.Point(10); !errors.Is(err, repro.ErrBadQuery) {
		t.Fatalf("Point(10): %v", err)
	}
	if _, err := ds.Score(10, []float64{1, 0, 0}); !errors.Is(err, repro.ErrBadQuery) {
		t.Fatalf("Score out of range: %v", err)
	}
	if _, err := ds.Score(0, []float64{1, 0}); !errors.Is(err, repro.ErrBadQuery) {
		t.Fatalf("Score dim mismatch: %v", err)
	}
	if _, err := ds.RankOf([]float64{1, 0}, []float64{1, 0, 0}); !errors.Is(err, repro.ErrBadQuery) {
		t.Fatalf("RankOf record dim mismatch: %v", err)
	}
	if _, err := ds.RankOf([]float64{1, 0, 0}, []float64{1, 0, 0, 0}); !errors.Is(err, repro.ErrBadQuery) {
		t.Fatalf("RankOf query dim mismatch: %v", err)
	}
	// Valid calls still work.
	p := mustPoint(t, ds, 0)
	if got := mustRank(t, ds, p, []float64{0.3, 0.3, 0.4}); got < 1 || got > 10 {
		t.Fatalf("rank %d out of [1,10]", got)
	}
	if s := mustScore(t, ds, 0, []float64{1, 0, 0}); s != p[0] {
		t.Fatalf("score %v, want %v", s, p[0])
	}
}
