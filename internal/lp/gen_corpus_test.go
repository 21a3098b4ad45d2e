package lp

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestGenerateFuzzCorpus (re)generates the committed seed corpus under
// testdata/fuzz/FuzzSolve. It is skipped unless GEN_FUZZ_CORPUS=1, because
// its job is to produce checked-in files, not to test anything:
//
//	GEN_FUZZ_CORPUS=1 go test ./internal/lp -run TestGenerateFuzzCorpus
//
// The seeds are the LPs that reach the solver's corner cases: Beale's
// cycling LP (rows and objective scaled by positive factors onto the k/16
// grid, which changes neither the pivots nor the optimal point), a phase 1
// whose every RHS is negative, and an equality with a duplicated row, after
// which the phase-1 variable x0 is still basic at zero and must be pivoted
// out. Plain `go test` replays every committed entry through FuzzSolve.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to regenerate testdata/fuzz/FuzzSolve")
	}
	corpus := map[string][]byte{
		"beale": encodeLP(
			[]float64{0.1875, -5, 0.125, -1.5},
			[][]float64{{0.125, -4, -0.5, 4.5}, {0.25, -6, -0.25, 1.5}, {0, 0, 1, 0}},
			[]float64{0, 0, 1}),
		"all-negative-rhs": encodeLP(
			[]float64{-1, -0.5},
			[][]float64{{-1, -1}, {-1, 0.25}, {0.5, -1}},
			[]float64{-1, -0.25, -0.5}),
		"duplicated-row": encodeLP(
			[]float64{0.5},
			[][]float64{{-1}, {1}, {-1}},
			[]float64{-1, 1, -1}),
		"infeasible": encodeLP(
			[]float64{1, 1},
			[][]float64{{-1, -1}, {1, 1}},
			[]float64{-1.5, 1}),
		"origin-feasible": encodeLP(
			[]float64{3, 2},
			[][]float64{{1, 1}, {1, 3}},
			[]float64{4, 6}),
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSolve")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range corpus {
		// The Go fuzzing corpus file format: a version line, then one
		// quoted Go value per fuzz argument.
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d corpus entries to %s", len(corpus), dir)
}
