package core

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rstar"
	"repro/internal/vecmath"
)

var updateAA2D = flag.Bool("update-aa2d", false, "rewrite testdata/aa2d_golden.jsonl from the current implementation")

const aa2dGoldenFile = "testdata/aa2d_golden.jsonl"

// aa2dGoldenRegion is one region of a golden answer; the interval ends are
// float64 bit patterns, so "equal" means equal to the bit.
type aa2dGoldenRegion struct {
	Lo, Hi  string
	Order   int
	Outrank []int64
}

// aa2dGolden is one AA2D answer: the whole Result but CPU time.
type aa2dGolden struct {
	Dist       string
	Focal, Tau int
	KStar      int
	MinOrder   int
	Dominators int64
	Regions    []aa2dGoldenRegion
	Iterations int
	Halfspaces int
	Accessed   int64
	IO         int64
}

func goldenOf(dist string, focal, tau int, res *Result) aa2dGolden {
	g := aa2dGolden{
		Dist: dist, Focal: focal, Tau: tau,
		KStar: res.KStar, MinOrder: res.MinOrder, Dominators: res.Dominators,
		Iterations: res.Stats.Iterations, Halfspaces: res.Stats.HalfspacesInserted,
		Accessed: res.Stats.IncomparableAccessed, IO: res.Stats.IO,
	}
	for _, reg := range res.Regions {
		g.Regions = append(g.Regions, aa2dGoldenRegion{
			Lo:      fmt.Sprintf("%016x", math.Float64bits(reg.Box.Lo[0])),
			Hi:      fmt.Sprintf("%016x", math.Float64bits(reg.Box.Hi[0])),
			Order:   reg.Order,
			Outrank: reg.OutrankIDs,
		})
	}
	return g
}

const (
	aa2dGoldenN      = 2000
	aa2dGoldenFocals = 13 // per distribution and τ: 2 × 2 × 13 = 52 answers
)

// aa2dGoldenInput is one of the two datasets with its focals.
type aa2dGoldenInput struct {
	tree   *rstar.Tree
	points []vecmath.Point
	focals []int
}

// aa2dGoldenInputs builds the two datasets and, for each, focals spread
// over the strongest sixth by coordinate sum (weaker focals have orders in
// the hundreds, and OutrankIDs to match).
func aa2dGoldenInputs(t testing.TB) map[string]aa2dGoldenInput {
	out := map[string]aa2dGoldenInput{}
	for _, dist := range []dataset.Distribution{dataset.IND, dataset.ANTI} {
		points := dataset.Generate(dist, aa2dGoldenN, 2, 20150833)
		bySum := make([]int, len(points))
		for i := range bySum {
			bySum[i] = i
		}
		sort.SliceStable(bySum, func(a, b int) bool { return points[bySum[a]].Sum() > points[bySum[b]].Sum() })
		var focals []int
		for i := 0; i < aa2dGoldenFocals; i++ {
			focals = append(focals, bySum[i*(aa2dGoldenN/6)/aa2dGoldenFocals])
		}
		out[dist.String()] = aa2dGoldenInput{buildTree(t, points), points, focals}
	}
	return out
}

// pinState makes the free list hold st alone, so the test's next
// acquireState hands it out and gets it back on release (nil: an empty
// list, so the next query runs on a state never used before). It returns
// the function that empties the list again.
func pinState(st *execState) func() {
	freeStates.Lock()
	defer freeStates.Unlock()
	freeStates.list = nil
	if st != nil {
		freeStates.list = []*execState{st}
	}
	return func() { pinState(nil) }
}

// TestAA2DGolden holds AA2D to answers dumped before its loop and the
// skyline maintainer under it were rewritten: k*, every region's interval
// to the bit and in order, OutrankIDs, and the iteration, half-line,
// record and page counts — on a state never used before and on one a
// larger d = 4 query has just left behind. Each mode runs with the
// deprecated Input.Workers at 1 and at 8, pinning that the field is
// ignored; the workers8 runs go when the field does.
func TestAA2DGolden(t *testing.T) {
	inputs := aa2dGoldenInputs(t)
	if *updateAA2D {
		f, err := os.Create(aa2dGoldenFile)
		if err != nil {
			t.Fatal(err)
		}
		w := bufio.NewWriter(f)
		enc := json.NewEncoder(w)
		for _, dist := range []string{"IND", "ANTI"} {
			in := inputs[dist]
			for _, tau := range []int{0, 2} {
				for _, focal := range in.focals {
					res, err := aa2dRun(Input{Tree: in.tree, Focal: in.points[focal], FocalID: int64(focal), Tau: tau, CollectRecordIDs: true})
					if err != nil {
						t.Fatal(err)
					}
					if err := enc.Encode(goldenOf(dist, focal, tau, res)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	f, err := os.Open(aa2dGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var golden []aa2dGolden
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		var g aa2dGolden
		if err := json.Unmarshal(sc.Bytes(), &g); err != nil {
			t.Fatal(err)
		}
		golden = append(golden, g)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(golden) != 4*aa2dGoldenFocals {
		t.Fatalf("%s holds %d answers, want %d", aa2dGoldenFile, len(golden), 4*aa2dGoldenFocals)
	}

	// The larger query whose leftovers the warm runs start from.
	big := dataset.Generate(dataset.IND, 1500, 4, 20150831)
	bigIn := Input{Tree: buildTree(t, big), Focal: big[medianHeavyFocal], FocalID: medianHeavyFocal}

	for _, mode := range []string{"cold", "warm"} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers%d", mode, workers), func(t *testing.T) {
				var st *execState
				if mode == "warm" {
					st = newExecState()
				}
				defer pinState(st)()
				for _, want := range golden {
					in := inputs[want.Dist]
					if st == nil {
						pinState(nil) // empty the list: every cold query gets a new state
					}
					if st != nil && want.Focal == in.focals[0] {
						if _, err := aaRun(bigIn); err != nil {
							t.Fatal(err)
						}
					}
					res, err := aa2dRun(Input{
						Tree: in.tree, Focal: in.points[want.Focal], FocalID: int64(want.Focal),
						Tau: want.Tau, CollectRecordIDs: true, Workers: workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					got, _ := json.Marshal(goldenOf(want.Dist, want.Focal, want.Tau, res))
					exp, _ := json.Marshal(want)
					if string(got) != string(exp) {
						t.Fatalf("%s focal %d tau %d:\n got  %.600s\n want %.600s", want.Dist, want.Focal, want.Tau, got, exp)
					}
				}
			})
		}
	}
}
