package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/skyline"
	"repro/internal/vecmath"
)

// halfline is the d = 2 counterpart of a half-space: the reduced query
// space is the q1 interval (0,1) and every incomparable record r induces
// either ⟨v, →⟩ (r outranks p when q1 > v) or ⟨v, ←⟩ (when q1 < v).
type halfline struct {
	v         float64
	recordID  int64
	right     bool // true: contains q1 > v; false: contains q1 < v
	augmented bool
}

// contains reports whether the half-line contains the open interval (lo,hi).
func (h *halfline) contains(lo, hi float64) bool {
	if h.right {
		return h.v <= lo
	}
	return h.v >= hi
}

// interval is one cell of the d = 2 arrangement.
type interval struct {
	lo, hi float64
	order  int
	aug    int // containing half-lines that are still augmented
}

// aa2dState is AA2D's share of the pooled execState: the mixed arrangement
// and the per-iteration buffers. It holds no pointers, so a released state
// pins nothing and every buffer is simply truncated by the next query.
type aa2dState struct {
	all      []halfline // in insertion order, which is OutrankIDs' order
	byV      []vref     // all of them, ascending v
	pending  []vref     // inserted since the last sweep, not yet in byV
	cells    []interval
	accurate []interval
	expand   []expansion
	// cur0 and aug0 count the half-lines containing the first cell, and
	// those of them still augmented: insert and unaugment keep them
	// current, so the sweep starts from them instead of a pass over all.
	cur0, aug0 int
}

// vref and expansion name a half-line by its index in aa2dState.all and
// carry what orders it: its value in the sorted list, its record ID in an
// iteration's expansion set.
type vref struct {
	v   float64
	idx int32
}

type expansion struct {
	id  int64
	idx int32
}

// vless and byValue order half-lines by value, then index. Plain
// comparisons suffice: v = cb/ca with ca ≠ 0 over validated finite
// coordinates is never NaN, so cmp.Compare's NaN ordering would be dead
// weight in the hottest sort and merge.
func vless(a, b vref) bool { return a.v < b.v || (a.v == b.v && a.idx < b.idx) }

func byValue(a, b vref) int {
	if a.v != b.v {
		if a.v < b.v {
			return -1
		}
		return 1
	}
	return int(a.idx) - int(b.idx)
}

func byRecordID(a, b expansion) int { return cmp.Compare(a.id, b.id) }

// inFirstCell reports whether the half-line contains the first cell (0, v1):
// a ← half-line with v > 0, or a → one with v <= 0 (which cannot arise
// from incomparable records but is handled for robustness).
func (h *halfline) inFirstCell() bool { return (h.right && h.v <= 0) || (!h.right && h.v > 0) }

// insert appends the half-lines the records induce for focal p.
func (a *aa2dState) insert(p vecmath.Point, recs []skyline.Record) error {
	for _, r := range recs {
		ca := (r.Point[0] - r.Point[1]) - (p[0] - p[1])
		cb := p[1] - r.Point[1]
		if ca == 0 {
			// Cannot happen for records incomparable to p (it would
			// imply dominance); guard against degenerate input.
			return fmt.Errorf("core: record %d induces a degenerate half-line", r.ID)
		}
		// One half-line per record the skyline surfaced, and its slab
		// indexes are int32: so are these.
		hl := halfline{v: cb / ca, recordID: r.ID, right: ca > 0, augmented: true}
		if hl.inFirstCell() {
			a.cur0++
			a.aug0++
		}
		a.pending = append(a.pending, vref{v: hl.v, idx: int32(len(a.all))})
		a.all = append(a.all, hl)
	}
	return nil
}

// unaugment marks half-line i as no longer augmented.
func (a *aa2dState) unaugment(i int32) {
	hl := &a.all[i]
	if hl.augmented && hl.inFirstCell() {
		a.aug0--
	}
	hl.augmented = false
}

// merge moves the pending half-lines into the value-sorted order.
func (a *aa2dState) merge() {
	slices.SortFunc(a.pending, byValue)
	i, j := len(a.byV)-1, len(a.pending)-1
	a.byV = append(a.byV, a.pending...)
	for w := len(a.byV) - 1; j >= 0; w-- {
		if i >= 0 && vless(a.pending[j], a.byV[i]) {
			a.byV[w] = a.byV[i]
			i--
		} else {
			a.byV[w] = a.pending[j]
			j--
		}
	}
	a.pending = a.pending[:0]
}

// sweep fills cells with the arrangement's intervals, left to right, and
// returns the least cell order. The first cell's counts are kept current
// (cur0, aug0); crossing a boundary adds its → half-lines and removes its ←
// ones. The count of containing half-lines that are augmented rides along,
// so cell accuracy falls out of the same sweep.
func (a *aa2dState) sweep() int {
	a.merge()
	cur, curAug := a.cur0, a.aug0
	a.cells = a.cells[:0]
	lo, minO := 0.0, math.MaxInt
	emit := func(hi float64) {
		a.cells = append(a.cells, interval{lo: lo, hi: hi, order: cur, aug: curAug})
		minO = min(minO, cur)
		lo = hi
	}
	for _, r := range a.byV {
		if r.v <= 0 {
			continue // effects already folded into the initial count
		}
		if r.v >= 1 {
			break
		}
		if r.v > lo {
			emit(r.v)
		}
		hl, step := &a.all[r.idx], 1
		if !hl.right {
			step = -1
		}
		cur += step
		if hl.augmented {
			curAug += step
		}
	}
	emit(1)
	return minO
}

// AA2D is the specialised advanced approach for d = 2 (paper Section 6.3):
// the mixed arrangement is a set of half-lines kept in one value-sorted
// list, cells are the intervals between consecutive boundary values, and
// cell orders follow from a single left-to-right sweep.
func AA2D(in Input) (*Result, error) { return StrategyAA2D.Run(in) }

func aa2dRun(in Input) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.Tree.Dim() != 2 {
		return nil, fmt.Errorf("core: AA2D requires d = 2, got %d", in.Tree.Dim())
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

	sky := &st.sky
	if err := sky.Reset(ctx, rd, p, in.FocalID); err != nil {
		return nil, err
	}
	a := &st.aa2d
	a.all, a.byV, a.pending = a.all[:0], a.byV[:0], a.pending[:0]
	a.cur0, a.aug0 = 0, 0
	first, err := sky.Skyline()
	if err != nil {
		return nil, err
	}
	if err := a.insert(p, first); err != nil {
		return nil, err
	}

	oStar := -1
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Stats.Iterations++
		minO := a.sweep()

		bound := minO
		if oStar >= 0 && oStar < bound {
			bound = oStar
		}
		// Candidate cells are accurate (no augmented half-line contains
		// them) or not. Every augmented half-line containing an inaccurate
		// cell is expanded, and the sweep already knows which those are: a
		// → half-line contains a cell when v <= the cell's lo, a ← one when
		// v >= its hi, so over all inaccurate cells it is the → half-lines
		// up to the rightmost lo and the ← ones from the leftmost hi.
		a.accurate = a.accurate[:0]
		inaccurate, maxLo, minHi := false, math.Inf(-1), math.Inf(1)
		for _, c := range a.cells {
			if c.order > bound+in.Tau {
				continue
			}
			if c.aug == 0 {
				if oStar < 0 || c.order < oStar {
					oStar = c.order
				}
				a.accurate = append(a.accurate, c)
				continue
			}
			inaccurate, maxLo, minHi = true, max(maxLo, c.lo), min(minHi, c.hi)
		}
		if !inaccurate {
			break // a.accurate is the answer
		}
		a.expand = a.expand[:0]
		for i := range a.all {
			if hl := &a.all[i]; hl.augmented && hl.contains(maxLo, minHi) {
				a.expand = append(a.expand, expansion{id: hl.recordID, idx: int32(i)})
			}
		}
		// Ascending record ID: the expansion order decides the order in
		// which half-lines are inserted, and with it OutrankIDs' order.
		slices.SortFunc(a.expand, byRecordID)
		for _, e := range a.expand {
			a.unaugment(e.idx)
			uncovered, err := sky.Expand(e.id)
			if err != nil {
				return nil, err
			}
			if err := a.insert(p, uncovered); err != nil {
				return nil, err
			}
		}
	}
	res.Stats.HalfspacesInserted = len(a.all)

	regions := make([]Region, 0, len(a.accurate))
	for _, c := range a.accurate {
		reg := Region{
			Box:     geom.MustRect(vecmath.Point{c.lo}, vecmath.Point{c.hi}),
			Witness: vecmath.Point{(c.lo + c.hi) / 2},
			Order:   c.order,
		}
		if in.CollectRecordIDs {
			for i := range a.all {
				if hl := &a.all[i]; hl.contains(c.lo, c.hi) {
					reg.OutrankIDs = append(reg.OutrankIDs, hl.recordID)
				}
			}
		}
		regions = append(regions, reg)
	}
	finishResult(res, regions, oStar, in.Tau, dom)
	res.Stats.Dominators = dom
	res.Stats.IncomparableAccessed = sky.Accessed()
	res.Stats.IO = tr.Reads()
	res.Stats.CPUTime = timeNow().Sub(start)
	return res, nil
}
