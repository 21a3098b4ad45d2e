// Package core implements the MaxRank algorithms of Mouratidis, Zhang and
// Pang (PVLDB 2015): FCA (the first-cut 2-d sweep, Section 4), BA (the
// basic quad-tree approach, Section 5), AA (the advanced approach with
// implicit half-space subsumption, Section 6) and its d = 2 specialisation
// (Section 6.3), each supporting the incremental variant iMaxRank (τ ≥ 0).
//
// Each algorithm is exposed both as a plain function (FCA, BA, AA, AA2D)
// and as an Algorithm strategy value (StrategyFCA, ...) so callers can
// select processing dynamically. Queries are self-contained: all mutable
// state lives in a per-query execState (pooled across queries), node
// accesses are attributed to the query's pager.Tracker, and the query
// context is honoured inside the algorithm loops — so any number of queries
// may run concurrently against one finalized tree.
package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/geom"
	"repro/internal/pager"
	"repro/internal/rstar"
	"repro/internal/vecmath"
)

// Input describes one MaxRank (or iMaxRank) query.
type Input struct {
	// Tree indexes the dataset.
	Tree *rstar.Tree
	// Focal is the focal record p.
	Focal vecmath.Point
	// FocalID is p's record ID within the tree, or a negative value when p
	// is not part of the dataset (a "what-if" query).
	FocalID int64
	// Tau is the iMaxRank slack τ; 0 yields plain MaxRank.
	Tau int
	// QuadMaxPartial overrides the quad-tree leaf split threshold (0 =
	// default).
	QuadMaxPartial int
	// QuadMaxDepth overrides the quad-tree depth cap (0 = default).
	QuadMaxDepth int
	// CollectRecordIDs materialises, for each result region, the IDs of the
	// incomparable records that outrank p there (the paper's R_c set).
	CollectRecordIDs bool
	// Workers is ignored: every query runs on its caller's goroutine.
	//
	// Deprecated: queries are sequential; run several queries at once for
	// parallelism. The field remains only so existing callers compile.
	Workers int
	// Ctx carries cancellation and deadline for the query; nil means
	// context.Background(). The algorithm loops poll it between tree node
	// accesses, quad-tree leaves and expansion rounds.
	Ctx context.Context
	// IO, when non-nil, receives the query's page accesses. A nil IO gets a
	// private tracker, so Stats.IO is always the pages *this* query read,
	// even when other queries run concurrently on the same store.
	IO *pager.Tracker
}

// Validate checks the query for structural problems.
func (in *Input) Validate() error {
	if in.Tree == nil {
		return fmt.Errorf("core: nil tree")
	}
	if len(in.Focal) != in.Tree.Dim() {
		return fmt.Errorf("core: focal dim %d != tree dim %d", len(in.Focal), in.Tree.Dim())
	}
	if in.Tree.Dim() < 2 {
		return fmt.Errorf("core: MaxRank needs d >= 2, got %d", in.Tree.Dim())
	}
	if in.Tau < 0 {
		return fmt.Errorf("core: negative tau %d", in.Tau)
	}
	return nil
}

// begin resolves the query's execution context: a non-nil context, the
// query's I/O tracker (allocating a private one when the caller did not
// supply any) and a tree reader charging that tracker.
func (in *Input) begin() (context.Context, rstar.Reader, *pager.Tracker) {
	ctx := in.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	tr := in.IO
	if tr == nil {
		tr = new(pager.Tracker)
	}
	return ctx, in.Tree.Reader(tr), tr
}

// Region is one maximal part of the query space where the focal record
// achieves an order within the reported band. Coordinates live in the
// reduced (d−1)-dimensional query space.
type Region struct {
	// Box is the quad-tree leaf (or interval, for d = 2) containing the
	// cell part.
	Box geom.Rect
	// Constraints describe the cell: the conjunction of these closed
	// half-spaces, the Box bounds and the domain simplex. Empty for d = 2
	// interval regions (the Box is the full description).
	Constraints []geom.Halfspace
	// Witness lies strictly inside the region.
	Witness vecmath.Point
	// Order is the cell order |Hc|: the number of incomparable records that
	// outrank p anywhere in the region. The focal record's rank here is
	// Dominators + Order + 1.
	Order int
	// OutrankIDs lists the records outranking p in this region (only when
	// Input.CollectRecordIDs is set).
	OutrankIDs []int64
}

// QueryVector lifts the region witness to a full d-dimensional permissible
// query vector.
func (r *Region) QueryVector() vecmath.Point { return vecmath.LiftQuery(r.Witness) }

// Stats captures the cost counters the paper reports.
type Stats struct {
	CPUTime    time.Duration
	IO         int64 // page accesses during the query
	Dominators int64 // |D+|
	// IncomparableAccessed is the number of incomparable records surfaced
	// (n for BA/FCA, the much smaller n_a for AA).
	IncomparableAccessed int64
	// HalfspacesInserted counts half-spaces threaded into the arrangement.
	HalfspacesInserted int
	// LPCalls counts half-space-intersection feasibility tests.
	LPCalls int64
	// LeavesProcessed / LeavesPruned count within-leaf invocations vs leaves
	// skipped by the |Fl| bound.
	LeavesProcessed int
	LeavesPruned    int
	// Iterations counts AA expansion rounds (1 for BA/FCA).
	Iterations int
}

// Result is the MaxRank answer.
type Result struct {
	// KStar is the best (smallest) order the focal record can achieve.
	KStar int
	// MinOrder is KStar expressed as a cell order (KStar − Dominators − 1).
	MinOrder int
	// Dominators is |D+|.
	Dominators int64
	// Regions lists all regions with order in [MinOrder, MinOrder+τ],
	// sorted by ascending order.
	Regions []Region
	Stats   Stats
}

// CountDominators computes |D+| with two aggregate counts: records
// coordinate-wise >= p, minus records exactly equal to p (score ties are
// ignored throughout, following the paper). A subtree wholly inside either
// set contributes its count without being read.
func CountDominators(rd rstar.Reader, p vecmath.Point) (int64, error) {
	var geq int64
	err := rd.Descend(nil, func(e *rstar.Entry, leaf bool) (bool, error) {
		switch {
		case !allGeq(e.Rect.Hi, p): // nothing inside is >= p
		case leaf || allGeq(e.Rect.Lo, p):
			geq += e.Count
		default:
			return true, nil
		}
		return false, nil
	})
	if err != nil {
		return 0, err
	}
	eq, err := rd.RangeCount(geom.Rect{Lo: p, Hi: p})
	if err != nil {
		return 0, err
	}
	return geq - eq, nil
}

// scanIncomparable visits every record incomparable to p, skipping whole
// subtrees that contain only dominators or only dominees (the 2^d − 2
// incomparable-region focusing of Section 5). The context is polled before
// every node access. The point handed to fn is valid only during the call.
func scanIncomparable(ctx context.Context, rd rstar.Reader, p vecmath.Point, focalID int64, fn func(pt vecmath.Point, id int64) error) error {
	return rd.Descend(ctx, func(e *rstar.Entry, leaf bool) (bool, error) {
		if !leaf {
			// Skip a pure dominee or pure dominator subtree.
			return !allGeq(p, e.Rect.Hi) && !allGeq(e.Rect.Lo, p), nil
		}
		if e.RecordID != focalID && vecmath.Compare(e.Point(), p) == vecmath.Incomparable {
			return false, fn(e.Point(), e.RecordID)
		}
		return false, nil
	})
}

// sortedIDs returns the set's members in ascending order. AA expands its
// per-round set in this order so that query results are bit-identical
// across runs (map iteration order would otherwise leak into quad-tree
// node numbering and hence into witness choices).
func sortedIDs(set map[int64]bool) []int64 {
	ids := make([]int64, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// allGeq reports a >= b on every axis.
func allGeq(a, b vecmath.Point) bool {
	for i, v := range a {
		if v < b[i] {
			return false
		}
	}
	return true
}

// finishResult trims regions to the [min, min+τ] band, sorts them by
// ascending order, and fills the derived result fields.
func finishResult(res *Result, regions []Region, minOrder int, tau int, dominators int64) {
	res.Dominators = dominators
	if minOrder < 0 { // no incomparable records anywhere: p can be top-1
		minOrder = 0
	}
	res.MinOrder = minOrder
	res.KStar = int(dominators) + minOrder + 1
	keep := regions[:0]
	for _, r := range regions {
		if r.Order <= minOrder+tau {
			keep = append(keep, r)
		}
	}
	sortRegions(keep)
	res.Regions = keep
}

func sortRegions(rs []Region) {
	// Insertion sort: region lists are modest and arrive mostly sorted.
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Order < rs[j-1].Order; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// timeNow is indirected for deterministic tests.
var timeNow = time.Now
