package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/cellenum"
	"repro/internal/geom"
	"repro/internal/quadtree"
	"repro/internal/vecmath"
)

// BA is the basic approach for d >= 2 (paper Section 5): map every
// incomparable record to a half-space in the reduced query space, organise
// all of them in an augmented quad-tree, and process the leaves in
// increasing |Fl| order, running the within-leaf module on each until the
// remaining leaves cannot contain a cell of low enough order.
func BA(in Input) (*Result, error) { return StrategyBA.Run(in) }

func baRun(in Input) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	start := timeNow()
	ctx, rd, tr := in.begin()
	st := acquireState()
	defer releaseState(st)
	res := &Result{}
	p := in.Focal

	dom, err := CountDominators(rd, p)
	if err != nil {
		return nil, err
	}

	qt, err := st.resetTree(&in)
	if err != nil {
		return nil, err
	}
	// Collect the incomparable records first and insert them in record-ID
	// order rather than in R*-tree traversal order: traversal order depends
	// on the tree's shape (bulk-loaded vs incrementally built or mutated),
	// and the quad-tree's node numbering — and with it constraint order and
	// witness choice — follows insertion order. Sorting makes the answer a
	// pure function of the record set, bit-identical across tree shapes.
	type incRec struct {
		p  vecmath.Point
		id int64
	}
	var incs []incRec
	err = scanIncomparable(ctx, rd, p, in.FocalID, func(r vecmath.Point, id int64) error {
		incs = append(incs, incRec{p: r.Clone(), id: id})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(incs, func(i, j int) bool { return incs[i].id < incs[j].id })
	for _, r := range incs {
		qt.Insert(&quadtree.HalfspaceRef{H: geom.RecordHalfspace(r.p, p), RecordID: r.id})
	}
	if err := qt.Err(); err != nil {
		return nil, err
	}
	res.Stats.IncomparableAccessed = int64(len(incs))
	res.Stats.HalfspacesInserted = qt.NumHalfspaces()

	minOrder, cells, err := collectCells(ctx, qt, &in, &res.Stats, -1, st, false)
	if err != nil {
		return nil, err
	}
	if err := st.expandLeftOut(qt, minOrder, nil, &res.Stats); err != nil { // BA's half-spaces are all singular
		return nil, err
	}
	regions := make([]Region, 0, len(cells))
	for _, fc := range cells {
		regions = append(regions, makeRegion(qt, fc, in.CollectRecordIDs))
	}
	finishResult(res, regions, minOrder, in.Tau, dom)
	res.Stats.Dominators = dom
	res.Stats.Iterations = 1
	res.Stats.IO = tr.Reads()
	res.Stats.CPUTime = timeNow().Sub(start)
	return res, nil
}

// foundCell is a non-empty arrangement cell discovered during the leaf
// loop, annotated with its leaf and total order.
type foundCell struct {
	leaf  quadtree.Leaf
	cell  cellenum.Cell
	order int // |Fl| + p-order
}

// containingRefs returns the indices (into the quad-tree's half-space
// registry) of all half-spaces containing this cell: the leaf's full set
// plus the partial half-spaces whose bit is 1.
func (fc *foundCell) containingRefs() []int {
	full := fc.leaf.Full()
	partial := fc.leaf.Partial()
	refs := make([]int, 0, len(full)+len(fc.cell.In))
	refs = append(refs, full...)
	for _, i := range fc.cell.In {
		refs = append(refs, partial[i])
	}
	return refs
}

// leafCache memoises within-leaf enumerations across AA iterations, keyed
// by the leaf's arena index in the quad-tree; entries are invalidated by
// version changes. The cache lives in the query's execState: arena indexes
// are only meaningful within one query's quad-tree, so it never outlives
// the query.
type leafCache map[int]leafCacheEntry

type leafCacheEntry struct {
	version int
	out     cellenum.Result
}

// validFor reports whether a cached enumeration answers a query with the
// given weight cap and τ: the cached run must have exhaustively covered
// either the requested cap or its own natural stopping weight (minWeight+τ),
// whichever is smaller.
func (e *leafCacheEntry) validFor(maxW, tau int) bool {
	out := &e.out
	if out.Truncated {
		return false
	}
	need := maxW
	if need < 0 || need > out.MaxPossibleWeight {
		need = out.MaxPossibleWeight
	}
	if out.MinWeight >= 0 && out.MinWeight+tau < need {
		need = out.MinWeight + tau
	}
	return out.CompleteUpTo >= need
}

// collectCells runs the leaf loop shared by BA and each AA iteration:
// leaves ascending by |Fl|, ties depth-first, off the state's best-first
// frontier, within-leaf enumeration bounded by the best order found so far
// plus τ. A non-negative orderCap
// additionally bounds collection (AA passes its current accurate optimum
// o*), and AA sets useCache so unchanged leaves are not re-enumerated
// across its iterations.
//
// The returned cell list aliases st.cells; callers must finish with it
// before the state is released. The context is polled once per leaf.
//
// It returns the minimum cell order discovered (-1 when no cell exists,
// which only happens when the whole arrangement lies outside the domain)
// and all cells with order <= min(best, orderCap) + τ. Leaves whose
// enumeration hit the candidate limit are listed in st.truncated for
// expandLeftOut.
func collectCells(ctx context.Context, qt *quadtree.Tree, in *Input, stats *Stats, orderCap int, st *execState, useCache bool) (int, []foundCell, error) {
	frontier := &st.frontier
	frontier.Reset(qt)
	best := -1 // min cell order found; -1 = nothing yet
	st.truncated = st.truncated[:0]
	bound := func() int {
		b := orderCap
		if best >= 0 && (b < 0 || best < b) {
			b = best
		}
		return b
	}
	cells := st.cells[:0]
	popped := 0
	for ; ; popped++ {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		limit := -1 // leaves past bound + τ are pruned
		if b := bound(); b >= 0 {
			limit = b + in.Tau
		}
		leaf, ok := frontier.Next(limit)
		if !ok {
			break
		}
		maxW := -1
		if limit >= 0 {
			maxW = limit - leaf.FullCount()
		}
		out, hit := st.cacheLookup(leaf, maxW, in.Tau, useCache)
		if !hit {
			out = st.enumerateLeaf(qt, in, leaf, maxW)
			stats.LeavesProcessed++
			stats.LPCalls += int64(out.LPCalls)
			if out.Truncated {
				st.truncated = append(st.truncated, truncatedLeaf{leaf, leaf.FullCount() + out.CompleteUpTo + 1})
			}
			st.cacheStore(leaf, out, useCache)
		}
		for _, cell := range out.Cells {
			order := leaf.FullCount() + cell.POrder()
			if b := bound(); b >= 0 && order > b+in.Tau {
				continue
			}
			if best < 0 || order < best {
				best = order
			}
			cells = append(cells, foundCell{leaf: leaf, cell: cell, order: order})
		}
	}
	if err := qt.Err(); err != nil {
		return 0, nil, err
	}
	stats.LeavesPruned += qt.NumLeaves() - popped
	// Trim to the final bound (cells collected early may exceed it).
	st.cells = trimCells(cells, bound(), in.Tau)
	return best, st.cells, nil
}

// truncatedLeaf is a leaf whose enumeration hit the candidate limit; lost
// is the least order of a cell it may have left out.
type truncatedLeaf struct {
	leaf quadtree.Leaf
	lost int
}

// expandLeftOut looks for a cell that a truncated leaf of the last
// collectCells left out below minOrder, the answer's order (-1: none was
// found, so any): one would mean k* could be too high. The cell's augmented
// coverers go into expand, to be expanded like any inaccurate candidate's;
// a cell with none, or a leaf that cannot be settled, fails with
// ErrLeafTruncated. Left-out cells of minOrder and above are not looked
// for; they could only add regions. The search's LP calls count in stats.
func (st *execState) expandLeftOut(qt *quadtree.Tree, minOrder int, expand map[int64]bool, stats *Stats) error {
	for _, tl := range st.truncated {
		if minOrder >= 0 && tl.lost >= minOrder {
			continue
		}
		cell, found, settled := st.findCell(tl.leaf.Box(), st.leafPartial(qt, tl.leaf), minOrder-1-tl.leaf.FullCount(), 4, stats)
		if !found && settled {
			continue
		}
		n := len(expand)
		if found {
			for _, refIdx := range (&foundCell{leaf: tl.leaf, cell: cell}).containingRefs() {
				if ref := qt.Ref(refIdx); ref.Augmented {
					expand[ref.RecordID] = true
				}
			}
		}
		if len(expand) == n {
			return fmt.Errorf("%w: leaf %d may hold a cell below order %d", ErrLeafTruncated, tl.leaf.NodeID(), minOrder)
		}
		return nil
	}
	return nil
}

// findCell looks in box for a cell of weight at most maxW (negative: any)
// in the arrangement of partial; a cell's sign vector over partial is the
// same whichever part of it is found. Where the enumeration truncates it
// looks in the 2^d halves of the box, which cut fewer half-spaces, down to
// depth halvings; a box still truncated there leaves the search unsettled.
// Every enumeration's LP calls are added to stats.
func (st *execState) findCell(box geom.Rect, partial []geom.Halfspace, maxW, depth int, stats *Stats) (cell cellenum.Cell, found, settled bool) {
	out := st.enum.Enumerate(box, partial, cellenum.Config{MaxWeight: maxW, CandidateLimit: candidateLimit})
	stats.LPCalls += int64(out.LPCalls)
	switch {
	case len(out.Cells) > 0:
		return out.Cells[0], true, true
	case !out.Truncated || depth == 0:
		return cell, false, !out.Truncated
	}
	mid := box.Center()
	for mask := 0; mask < 1<<len(mid); mask++ {
		half := box.Clone()
		for i, m := range mid {
			if mask&(1<<i) == 0 {
				half.Hi[i] = m
			} else {
				half.Lo[i] = m
			}
		}
		if cell, found, settled = st.findCell(half, partial, maxW, depth-1, stats); found || !settled {
			return cell, found, settled
		}
	}
	return cell, false, true
}

// leafPartial assembles the leaf's partial half-spaces into the state's
// recycled buffer.
func (st *execState) leafPartial(qt *quadtree.Tree, leaf quadtree.Leaf) []geom.Halfspace {
	p := st.partial[:0]
	for _, hsIdx := range leaf.Partial() {
		p = append(p, qt.Ref(hsIdx).H)
	}
	st.partial = p
	return p
}

// enumerateLeaf runs the within-leaf module on one leaf with the canonical
// configuration — including the (node ID, version) seed that makes every
// leaf's output deterministic.
func (st *execState) enumerateLeaf(qt *quadtree.Tree, in *Input, leaf quadtree.Leaf, maxW int) cellenum.Result {
	return st.enum.Enumerate(leaf.Box(), st.leafPartial(qt, leaf), cellenum.Config{
		MaxWeight:      maxW,
		Extra:          in.Tau,
		CandidateLimit: candidateLimit,
		Seed:           int64(leaf.NodeID())<<16 + int64(leaf.Version()),
	})
}

// candidateLimit is handed to every enumeration (0: cellenum's default). A
// variable so that a test can reach it.
var candidateLimit = 0

// ErrLeafTruncated reports a query whose k* could be too high: a quad-tree
// leaf's enumeration hit its candidate limit and may have left out a cell
// beating the answer (see expandLeftOut).
var ErrLeafTruncated = errors.New("core: a leaf exceeded the within-leaf candidate limit")

// cacheLookup probes the AA leaf cache for an enumeration that answers
// (maxW, tau).
func (st *execState) cacheLookup(leaf quadtree.Leaf, maxW, tau int, useCache bool) (cellenum.Result, bool) {
	if !useCache {
		return cellenum.Result{}, false
	}
	if ent, ok := st.cache[leaf.Index()]; ok && ent.version == leaf.Version() && ent.validFor(maxW, tau) {
		return ent.out, true
	}
	return cellenum.Result{}, false
}

// cacheStore records a completed (non-truncated) enumeration.
func (st *execState) cacheStore(leaf quadtree.Leaf, out cellenum.Result, useCache bool) {
	if !useCache || out.Truncated {
		return
	}
	st.cache[leaf.Index()] = leafCacheEntry{version: leaf.Version(), out: out}
}

// trimCells keeps only the cells within the final bound + τ, in place.
func trimCells(cells []foundCell, bound, tau int) []foundCell {
	if bound < 0 {
		return cells
	}
	kept := cells[:0]
	for _, fc := range cells {
		if fc.order <= bound+tau {
			kept = append(kept, fc)
		}
	}
	return kept
}

// makeRegion materialises a Region from a within-leaf cell. The Region owns
// (or exclusively references) everything it holds — nothing aliases the
// query's pooled scratch.
func makeRegion(qt *quadtree.Tree, fc foundCell, collectIDs bool) Region {
	leaf, cell := fc.leaf, fc.cell
	leafPartial := leaf.Partial()
	cons := make([]geom.Halfspace, 0, len(leafPartial))
	inSet := make(map[int]bool, len(cell.In))
	for _, i := range cell.In {
		inSet[i] = true
	}
	for i, hsIdx := range leafPartial {
		h := qt.Ref(hsIdx).H
		if inSet[i] {
			cons = append(cons, h)
		} else {
			cons = append(cons, h.Complement())
		}
	}
	reg := Region{
		Box:         leaf.Box().Clone(),
		Constraints: cons,
		Witness:     cell.Witness,
		Order:       fc.order,
	}
	if collectIDs {
		ids := make([]int64, 0, fc.order)
		for _, hsIdx := range fc.containingRefs() {
			ids = append(ids, qt.Ref(hsIdx).RecordID)
		}
		reg.OutrankIDs = ids
	}
	return reg
}
