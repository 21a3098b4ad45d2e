package core

import (
	"runtime"
	"sync"

	"repro/internal/cellenum"
	"repro/internal/geom"
	"repro/internal/quadtree"
	"repro/internal/skyline"
)

// Algorithm is a MaxRank processing strategy. Implementations are stateless
// values: all per-query state lives in the Input and in a pooled execState,
// so one Algorithm may serve any number of concurrent queries.
type Algorithm interface {
	// Name is the canonical strategy name (FCA, BA, AA, AA2D).
	Name() string
	// SupportsDim reports whether the strategy handles datasets of
	// dimensionality d.
	SupportsDim(d int) bool
	// Run executes the query.
	Run(in Input) (*Result, error)
}

// The built-in strategies.
var (
	// StrategyFCA is the first-cut score-line sweep (Section 4), d = 2 only.
	StrategyFCA Algorithm = fcaStrategy{}
	// StrategyBA is the basic approach (Section 5): every incomparable
	// record's half-space is materialised.
	StrategyBA Algorithm = baStrategy{}
	// StrategyAA is the advanced approach (Section 6); it dispatches to the
	// sorted-list specialisation for d = 2.
	StrategyAA Algorithm = aaStrategy{}
	// StrategyAA2D is the d = 2 specialisation of AA (Section 6.3).
	StrategyAA2D Algorithm = aa2dStrategy{}
)

type fcaStrategy struct{}

func (fcaStrategy) Name() string                  { return "FCA" }
func (fcaStrategy) SupportsDim(d int) bool        { return d == 2 }
func (fcaStrategy) Run(in Input) (*Result, error) { return fcaRun(in) }

type baStrategy struct{}

func (baStrategy) Name() string                  { return "BA" }
func (baStrategy) SupportsDim(d int) bool        { return d >= 2 }
func (baStrategy) Run(in Input) (*Result, error) { return baRun(in) }

type aaStrategy struct{}

func (aaStrategy) Name() string           { return "AA" }
func (aaStrategy) SupportsDim(d int) bool { return d >= 2 }
func (aaStrategy) Run(in Input) (*Result, error) {
	// Dispatch only; aa2dRun/aaRun validate the input themselves.
	if in.Tree != nil && in.Tree.Dim() == 2 {
		return aa2dRun(in)
	}
	return aaRun(in)
}

type aa2dStrategy struct{}

func (aa2dStrategy) Name() string                  { return "AA2D" }
func (aa2dStrategy) SupportsDim(d int) bool        { return d == 2 }
func (aa2dStrategy) Run(in Input) (*Result, error) { return aa2dRun(in) }

// execState carries the scratch buffers of one in-flight query. States are
// recycled through a free list (see acquireState) so a hot engine does not
// re-allocate the skyline maintainer's slabs, AA2D's arrangement, FCA's
// crossing lists, the quad-tree arena, leaf-loop buckets, cell lists,
// within-leaf enumerator arenas and the AA leaf cache on every query. Nothing in an execState
// escapes into a Result: makeRegion and AA2D's region assembly copy what
// they keep, so releasing the state after the query is safe.
//
// What the list pins: at most GOMAXPROCS warm states, each as large as the
// largest query it ever ran (≈20 MB of slabs after a heavy d = 4 focal;
// FCA's crossing lists hold 1.1 MB after one IND n = 100 000 query and
// 2.6 MB after 300), for the lifetime of the process.
//
// A state belongs to exactly one query, and a query runs on its caller's
// goroutine, so nothing in it is shared or locked.
type execState struct {
	sky     skyline.Maintainer // AA's and AA2D's skyline of unexpanded records
	aa2d    aa2dState          // AA2D's arrangement and iteration buffers
	qt      quadtree.Tree      // BA's and AA's arrangement; its Leaf handles point back here
	cells   []foundCell
	buckets [][]quadtree.Leaf
	leaves  []quadtree.Leaf // leaf gather buffer, in DFS order
	order   []quadtree.Leaf // the same leaves in ascending-|Fl| order
	cache   leafCache
	enum    cellenum.Enumerator
	partial []geom.Halfspace
	// truncated lists the leaves of the last collectCells whose enumeration
	// hit the candidate limit.
	truncated []truncatedLeaf
	fca       fcaState // FCA's crossing lists and sort scratch
}

func newExecState() *execState { return &execState{cache: make(leafCache)} }

// freeStates is the LIFO free list of warm states, capped at GOMAXPROCS
// entries. It is a plain mutex-guarded stack and not a sync.Pool on
// purpose: a Pool parks an object in a per-P slot no other P can take and
// drops everything every second GC, so whenever the scheduler moved a lone
// query goroutine its 20 MB arena was rebuilt — which made allocation per
// query a property of the run, not of the code. One lock per query is
// nothing beside the query.
var freeStates struct {
	sync.Mutex
	list []*execState
}

// acquireState pops the most recently released state, or constructs one
// when none is free.
func acquireState() *execState {
	freeStates.Lock()
	defer freeStates.Unlock()
	n := len(freeStates.list)
	if n == 0 {
		return newExecState()
	}
	st := freeStates.list[n-1]
	freeStates.list[n-1] = nil
	freeStates.list = freeStates.list[:n-1]
	return st
}

// resetTree empties the state's quad-tree for the query's arrangement.
func (st *execState) resetTree(in *Input) (*quadtree.Tree, error) {
	err := st.qt.Reset(in.Tree.Dim()-1, quadtree.Options{
		MaxPartial: in.QuadMaxPartial,
		MaxDepth:   in.QuadMaxDepth,
	})
	return &st.qt, err
}

// releaseHook, when set by a test, sees every state after it was scrubbed
// and before it returns to the free list.
var releaseHook func(*execState)

func releaseState(st *execState) {
	// Leaf-cache keys are quad-tree node IDs, which are only unique within
	// one query's quad-tree — stale entries would be wrong, not just
	// wasteful, so the map is always cleared.
	clear(st.cache)
	st.qt.Release()
	st.sky.Release()
	// Clear the full capacity, not just the current length: elements past
	// len (left over from larger earlier queries) would otherwise pin that
	// query's half-spaces and enumeration output for the list's lifetime.
	// Leaf handles only point back into the state's own tree, so the leaf
	// buffers and buckets stay as they are; their users truncate them. The
	// enumerator's Reset drops the references its constraint scratch holds
	// into the query's half-spaces while keeping the numeric arenas.
	st.cells = clearTail(st.cells)
	st.partial = clearTail(st.partial)
	st.enum.Reset()
	if releaseHook != nil {
		releaseHook(st)
	}
	freeStates.Lock()
	defer freeStates.Unlock()
	if len(freeStates.list) < runtime.GOMAXPROCS(0) {
		freeStates.list = append(freeStates.list, st)
	}
}

// clearTail zeroes a slice through its full capacity (so nothing from the
// finished query stays pinned) and returns it with length 0.
func clearTail[T any](s []T) []T {
	full := s[:cap(s)]
	clear(full)
	return full[:0]
}
