package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vecmath"
)

var updateQuad = flag.Bool("update-quad", false, "rewrite testdata/quad_golden.jsonl from the current implementation")

const quadGoldenFile = "testdata/quad_golden.jsonl"

// quadGoldenCase is one dataset, τ and focal list of the d >= 3 battery.
type quadGoldenCase struct {
	name   string
	dist   dataset.Distribution
	n, d   int
	seed   int64
	tau    int
	focals []int // nil: spread over the strongest sixth by coordinate sum
}

// heavyD4Focals is every twelfth focal of the benchmark's heavy_d4 pool
// (bench/testdata/pool_heavy_d4.json), over the same dataset.
var heavyD4Focals = []int{441, 1228, 713, 714, 1132, 1479, 1245, 183, 729, 815, 1451, 997, 311,
	1056, 1139, 946, 509, 1047, 129, 632, 912, 1319, 823, 114, 1388, 1448, 319, 437, 1317, 1025,
	568, 1363, 801, 563, 1277, 1219, 877}

func quadGoldenCases() []quadGoldenCase {
	return []quadGoldenCase{
		{"heavy_d4", dataset.IND, 1500, 4, 20150831, 0, heavyD4Focals},
		{"heavy_d4", dataset.IND, 1500, 4, 20150831, 2, heavyD4Focals},
		{"anti_d3", dataset.ANTI, 800, 3, 20150834, 1, nil},
		{"cor_d4", dataset.COR, 3000, 4, 20150835, 1, nil},
	}
}

// quadGolden is one BA or AA answer: the whole Result but CPU time. The
// regions — order, box, witness, constraints and OutrankIDs, floats as bit
// patterns — are folded into one digest, and again without the witnesses
// into Shape, which a change of leaf sampling leaves alone; the first
// region's witness is kept in the clear.
type quadGolden struct {
	Alg, Case  string
	Focal, Tau int
	KStar      int
	MinOrder   int
	Dominators int64
	Stats      Stats
	Regions    int
	Witness    string
	Digest     string
	Shape      string
}

func floatBits(vs ...[]float64) string {
	var parts []string
	for _, v := range vs {
		for _, f := range v {
			parts = append(parts, fmt.Sprintf("%016x", math.Float64bits(f)))
		}
	}
	return strings.Join(parts, ",")
}

func quadGoldenOf(alg, name string, focal, tau int, res *Result) quadGolden {
	g := quadGolden{
		Alg: alg, Case: name, Focal: focal, Tau: tau,
		KStar: res.KStar, MinOrder: res.MinOrder, Dominators: res.Dominators,
		Stats: res.Stats, Regions: len(res.Regions),
	}
	g.Stats.CPUTime = 0
	h, shape := sha256.New(), sha256.New()
	for i, reg := range res.Regions {
		if i == 0 {
			g.Witness = floatBits(reg.Witness)
		}
		fmt.Fprintln(h, reg.Order, floatBits(reg.Box.Lo, reg.Box.Hi), floatBits(reg.Witness), reg.OutrankIDs)
		fmt.Fprintln(shape, reg.Order, floatBits(reg.Box.Lo, reg.Box.Hi), reg.OutrankIDs)
		for _, c := range reg.Constraints {
			fmt.Fprintln(h, floatBits(c.A, []float64{c.B}))
			fmt.Fprintln(shape, floatBits(c.A, []float64{c.B}))
		}
	}
	g.Digest = fmt.Sprintf("%x", h.Sum(nil)[:16])
	g.Shape = fmt.Sprintf("%x", shape.Sum(nil)[:16])
	return g
}

// quadGoldenRuns lists every query of the battery in file order, each as
// a function that runs it: AA on every focal of each case, BA on every
// fourth.
func quadGoldenRuns(t testing.TB) (runs []func() quadGolden) {
	for _, c := range quadGoldenCases() {
		points := dataset.Generate(c.dist, c.n, c.d, c.seed)
		tree := buildTree(t, points)
		focals := c.focals
		if focals == nil {
			focals = strongestSpread(points, 12)
		}
		for _, alg := range []Algorithm{StrategyBA, StrategyAA} {
			for i, focal := range focals {
				if alg == StrategyBA && i%4 != 0 {
					continue // BA threads every incomparable record: a quarter of the focals
				}
				runs = append(runs, func() quadGolden {
					res, err := alg.Run(Input{Tree: tree, Focal: points[focal], FocalID: int64(focal), Tau: c.tau, CollectRecordIDs: true})
					if err != nil {
						t.Fatalf("%s %s focal %d tau %d: %v", alg.Name(), c.name, focal, c.tau, err)
					}
					return quadGoldenOf(alg.Name(), c.name, focal, c.tau, res)
				})
			}
		}
	}
	return runs
}

// strongestSpread returns k focals spread over the strongest sixth of
// points by coordinate sum.
func strongestSpread(points []vecmath.Point, k int) []int {
	bySum := make([]int, len(points))
	for i := range bySum {
		bySum[i] = i
	}
	sort.SliceStable(bySum, func(a, b int) bool { return points[bySum[a]].Sum() > points[bySum[b]].Sum() })
	focals := make([]int, k)
	for i := range focals {
		focals[i] = bySum[i*(len(points)/6)/k]
	}
	return focals
}

// TestQuadGolden holds BA and AA at d = 3 and 4 to answers dumped before
// the quad-tree deferred its pushes and the leaf scan became best-first:
// k*, every Stats field but CPUTime (LPCalls, LeavesProcessed and
// LeavesPruned included), and every region's order, box, witness,
// constraints and OutrankIDs to the bit and in order. Deferred splits and
// SplitMix64 sampling moved witnesses, LPCalls and LeavesPruned only; the
// Shape column, pinned before them, held. Regenerate with
// go test ./internal/core -run TestQuadGolden -update-quad, and only for a
// change that means to move answers.
func TestQuadGolden(t *testing.T) {
	runs := quadGoldenRuns(t)
	if *updateQuad {
		f, err := os.Create(quadGoldenFile)
		if err != nil {
			t.Fatal(err)
		}
		w := bufio.NewWriter(f)
		enc := json.NewEncoder(w)
		for _, run := range runs {
			if err := enc.Encode(run()); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	f, err := os.Open(quadGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var golden [][]byte
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		golden = append(golden, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(runs) {
		t.Fatalf("%s holds %d answers, want %d", quadGoldenFile, len(golden), len(runs))
	}
	for i, run := range runs {
		got, _ := json.Marshal(run())
		if string(got) != string(golden[i]) {
			t.Fatalf("answer %d:\n got  %.800s\n want %.800s", i, got, golden[i])
		}
	}
}
