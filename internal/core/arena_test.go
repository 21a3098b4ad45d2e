package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/quadtree"
	"repro/internal/rstar"
	"repro/internal/skyline"
)

// printed renders a Result's answer by value, so that two renderings
// compare what the Results held when each was taken and not whether they
// alias the same memory. CPUTime, wall time, is left out.
func printed(res *Result) string {
	cp := *res
	cp.Stats.CPUTime = 0
	return fmt.Sprintf("%+v", cp)
}

// poison overwrites AA2D's buffers through their capacity (see
// skyline.Maintainer.Poison).
func (a *aa2dState) poison() {
	nan := math.NaN()
	fillCap(a.all, halfline{v: nan, recordID: -1})
	fillCap(a.byV, vref{nan, -1})
	fillCap(a.pending, vref{nan, -1})
	fillCap(a.cells, interval{nan, nan, -1, -1})
	fillCap(a.accurate, interval{nan, nan, -1, -1})
	fillCap(a.expand, expansion{-1, -1})
	a.cur0, a.aug0 = -1, -1
}

// poison overwrites FCA's crossing lists through their capacity.
func (f *fcaState) poison() {
	nan := math.NaN()
	fillCap(f.up, nan)
	fillCap(f.down, nan)
	fillCap(f.scratch, nan)
}

func fillCap[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// TestResultSurvivesPoisonedRelease is the pooled state's hygiene
// contract: a Result aliases nothing pooled. A query's state — quad-tree
// arena, skyline slabs, AA2D's and FCA's buffers — is poisoned (NaN boxes,
// coefficients and points, -1 indexes) as it is released, which is before
// the caller sees the Result, and the Result (region boxes and OutrankIDs
// included) must still read as an unpoisoned run's did, and score to its
// claimed orders. The next query then runs on the poisoned state, so it
// also shows that the resets rebuild everything a query reads.
func TestResultSurvivesPoisonedRelease(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		points := dataset.Generate(dataset.IND, 600/(d-1), d, int64(40+d))
		tree := buildTree(t, points)
		algs := []Algorithm{StrategyBA, StrategyAA}
		if d == 2 {
			algs = []Algorithm{StrategyAA2D, StrategyFCA}
		}
		for _, alg := range algs {
			for focal := 0; focal < 4; focal++ {
				in := Input{
					Tree: tree, Focal: points[focal], FocalID: int64(focal),
					Tau: 1, CollectRecordIDs: true,
				}
				res, err := alg.Run(in)
				if err != nil {
					t.Fatal(err)
				}
				want := printed(res)
				releaseHook = func(st *execState) { st.qt.Poison(); st.sky.Poison(); st.aa2d.poison(); st.fca.poison() }
				got, err := alg.Run(in)
				releaseHook = nil
				if err != nil {
					t.Fatal(err)
				}
				if printed(got) != want {
					t.Fatalf("%s d=%d focal %d: result changed when its state was poisoned on release\n got  %s\n want %s",
						alg.Name(), d, focal, printed(got), want)
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

// medianHeavyFocal is the median-cost entry of the benchmark's heavy_d4
// pool (bench/testdata/pool_heavy_d4.json), over the same dataset.
const medianHeavyFocal = 765

// aaAllocBudget bounds a warm AA query at medianHeavyFocal. It measures
// 911: region and result assembly, one half-space per record surfaced,
// and within-leaf enumeration output (cells and forced lists) — nothing
// per quad-tree node, per skyline entry or per enumeration scratch row.
const aaAllocBudget = 1000

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
	sky, err := skyline.NewForQuery(ctx, rd, in.Focal, in.FocalID)
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

// meanWideFocal is a wide_d2 pool focal (bench/testdata/pool_wide_d2.json)
// of mean cost, over the same dataset: 29 iterations, 427 expansions,
// 1 250 records surfaced.
const meanWideFocal = 2627

// aa2dAllocBudget bounds a warm AA2D query at meanWideFocal: the Result
// and its one region, the query's tracker — nothing per iteration,
// half-line, skyline entry or page. It holds on both storages: a heap tree
// serves its cached nodes, and a mapped one decodes each page into the
// skyline's or the walk's scratch.
const aa2dAllocBudget = 12

// TestWarmAA2DAllocations keeps AA2D's loop, the skyline maintainer and
// its page decodes out of the allocator on a warm state, on a heap tree
// and on a mapped copy of it, so the next stray append fails here and not
// only in the benchmark.
func TestWarmAA2DAllocations(t *testing.T) {
	points := dataset.Generate(dataset.IND, 5000, 2, 20150832)
	heap := buildTree(t, points)
	var want string
	for _, tree := range []*rstar.Tree{heap, mappedCopy(t, heap)} {
		storage := fmt.Sprintf("%T", tree.Source())
		in := Input{Tree: tree, Focal: points[meanWideFocal], FocalID: meanWideFocal}
		res, err := aa2dRun(in) // warms every pooled buffer the query uses
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Iterations < 20 || res.Stats.IncomparableAccessed < 1000 {
			t.Errorf("%d iterations, %d records surfaced: not the wide_d2 query this guard is about",
				res.Stats.Iterations, res.Stats.IncomparableAccessed)
		}
		if want == "" {
			want = printed(res)
		} else if printed(res) != want {
			t.Fatalf("%s: answer differs from the heap tree's\n got  %s\n want %s", storage, printed(res), want)
		}
		n := math.Inf(1) // the fewest of several runs, as above
		for i := 0; i < 8; i++ {
			n = min(n, testing.AllocsPerRun(1, func() {
				if _, err := aa2dRun(in); err != nil {
					t.Fatal(err)
				}
			}))
		}
		t.Logf("%s: warm AA2D query: %.0f allocations (budget %d)", storage, n, aa2dAllocBudget)
		if n > aa2dAllocBudget {
			t.Errorf("%s: warm AA2D query: %.0f allocations, budget %d", storage, n, aa2dAllocBudget)
		}
	}
}

// TestStateReuseIsDeterministic: how often a query state is constructed is
// a property of the code, not of the scheduler or the collector. Fifty
// sequential AA queries — two GCs between each, which would have emptied a
// sync.Pool, and a Gosched storm on the other Ps, which would have moved
// the query off the P holding its private slot — all run on one state; and
// more concurrent queries than GOMAXPROCS leave at most GOMAXPROCS warm
// states behind.
func TestStateReuseIsDeterministic(t *testing.T) {
	points := dataset.Generate(dataset.IND, 300, 3, 77)
	in := Input{Tree: buildTree(t, points), Focal: points[5], FocalID: 5}
	defer pinState(nil)()

	stop := make(chan struct{})
	var storm sync.WaitGroup
	for i := 0; i < 2*runtime.GOMAXPROCS(0); i++ {
		storm.Add(1)
		go func() {
			defer storm.Done()
			for {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
		}()
	}
	seen := make(map[*execState]bool)
	releaseHook = func(st *execState) { seen[st] = true }
	for i := 0; i < 50; i++ {
		if _, err := aaRun(in); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
	}
	releaseHook = nil
	close(stop)
	storm.Wait()
	if len(seen) != 1 {
		t.Fatalf("50 sequential queries ran on %d distinct states, want 1", len(seen))
	}

	limit := runtime.GOMAXPROCS(0)
	var held, wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < limit+2; i++ {
		held.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := acquireState()
			held.Done()
			<-start // limit+2 states are in flight at once
			releaseState(st)
		}()
	}
	held.Wait()
	close(start)
	wg.Wait()
	freeStates.Lock()
	kept := len(freeStates.list)
	freeStates.Unlock()
	if kept != limit {
		t.Fatalf("%d concurrent releases left %d states on the free list, want GOMAXPROCS = %d", limit+2, kept, limit)
	}
}
