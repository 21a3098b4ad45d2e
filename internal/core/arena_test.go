package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/quadtree"
)

// printed renders a Result's answer by value, so that two renderings
// compare what the Results held when each was taken and not whether they
// alias the same memory.
func printed(res *Result) string { return fmt.Sprintf("%+v", *stripVolatileStats(res)) }

// TestResultSurvivesPoisonedRelease is the arena's hygiene contract: a
// Result aliases nothing pooled. A query's state is poisoned (NaN boxes
// and coefficients, -1 indexes) as it is released — which is before the
// caller sees the Result — and the Result must still read as an
// unpoisoned run's did, and score to its claimed orders. The next query
// then runs on the poisoned arena, so it also shows that Reset rebuilds
// everything the tree reads.
func TestResultSurvivesPoisonedRelease(t *testing.T) {
	for _, d := range []int{3, 4} {
		points := dataset.Generate(dataset.IND, 600/(d-1), d, int64(40+d))
		tree := buildTree(t, points)
		for _, alg := range []Algorithm{StrategyBA, StrategyAA} {
			for _, workers := range []int{1, 4} {
				for focal := 0; focal < 4; focal++ {
					in := Input{
						Tree: tree, Focal: points[focal], FocalID: int64(focal),
						Tau: 1, CollectRecordIDs: true, Workers: workers,
					}
					res, err := alg.Run(in)
					if err != nil {
						t.Fatal(err)
					}
					want := printed(res)
					releaseHook = func(st *execState) { st.qt.Poison() }
					got, err := alg.Run(in)
					releaseHook = nil
					if err != nil {
						t.Fatal(err)
					}
					if printed(got) != want {
						t.Fatalf("%s d=%d workers=%d focal %d: result changed when its state was poisoned on release\n got  %s\n want %s",
							alg.Name(), d, workers, focal, printed(got), want)
					}
					for i, reg := range got.Regions {
						if o := directOrderAt(points, focal, reg.Witness); o != reg.Order {
							t.Errorf("%s d=%d focal %d region %d: witness scores order %d, region claims %d",
								alg.Name(), d, focal, i, o, reg.Order)
						}
						for _, h := range reg.Constraints {
							if !h.Contains(reg.Witness) {
								t.Errorf("%s d=%d focal %d region %d: witness outside constraint %v", alg.Name(), d, focal, i, h)
							}
						}
					}
				}
			}
		}
	}
}

// medianHeavyFocal is the median-cost entry of the benchmark's heavy_d4
// pool (bench/testdata/pool_heavy_d4.json), over the same dataset.
const medianHeavyFocal = 765

// aaAllocBudget bounds a warm AA query at medianHeavyFocal. It measures
// 3 746: region and result assembly, the skyline, and within-leaf
// enumeration output — nothing per quad-tree node.
const aaAllocBudget = 4200

// TestWarmArenaAllocations keeps the quad-tree out of the allocator: on a
// warm state, threading a heavy_d4 focal's first skyline through the tree
// allocates nothing, and the whole query stays under a committed budget,
// so an append that sneaks back into the tree fails here and not only in
// the benchmark.
func TestWarmArenaAllocations(t *testing.T) {
	points := dataset.Generate(dataset.IND, 1500, 4, 20150831)
	tree := buildTree(t, points)
	in := Input{Tree: tree, Focal: points[medianHeavyFocal], FocalID: medianHeavyFocal}

	ctx, rd, _ := in.begin()
	sky, err := in.newSkyline(ctx, rd)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sky.Skyline()
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*quadtree.HalfspaceRef, len(first))
	for i, r := range first {
		refs[i] = &quadtree.HalfspaceRef{H: geom.RecordHalfspace(r.Point, in.Focal), RecordID: r.ID, Augmented: true}
	}
	st := acquireState()
	leaves := 0
	build := func() {
		qt, err := st.resetTree(&in)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range refs {
			qt.Insert(ref)
		}
		st.leaves = qt.AppendLeaves(st.leaves[:0])
		leaves = len(st.leaves)
	}
	build() // warm the arena
	if n := testing.AllocsPerRun(10, build); n != 0 {
		t.Errorf("building the first arrangement (%d half-spaces, %d leaves) on a warm arena: %v allocations, want 0", len(refs), leaves, n)
	}
	if leaves < 1000 {
		t.Errorf("only %d leaves: not the heavy_d4 build this guard is about", leaves)
	}
	releaseState(st)

	if _, err := aaRun(in); err != nil { // warms every pooled buffer the query uses
		t.Fatal(err)
	}
	// The fewest of several runs: a run whose state the pool dropped (a GC,
	// or the race detector's random drops) pays for a cold state.
	n := math.Inf(1)
	for i := 0; i < 8; i++ {
		n = min(n, testing.AllocsPerRun(1, func() {
			if _, err := aaRun(in); err != nil {
				t.Fatal(err)
			}
		}))
	}
	t.Logf("warm AA query: %.0f allocations (budget %d)", n, aaAllocBudget)
	if n > aaAllocBudget {
		t.Errorf("warm AA query: %.0f allocations, budget %d", n, aaAllocBudget)
	}
}
