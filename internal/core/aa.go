package core

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/quadtree"
	"repro/internal/skyline"
)

// AA is the advanced approach (paper Section 6). Instead of materialising a
// half-space for every incomparable record, AA maintains the skyline of the
// not-yet-expanded incomparable records (via BBS with parking — the
// implicit subsumption of Section 6.2) and keeps a *mixed arrangement* of
// augmented and singular half-spaces in the quad-tree. Each iteration
// identifies the minimum-order cells; cells covered by no augmented
// half-space have accurate order and extent, while the augmented coverers
// of the others are expanded — marked singular, with the records they
// subsumed surfacing as new augmented half-spaces. AA terminates when every
// candidate cell is accurate (Algorithm 1, extended to iMaxRank).
func AA(in Input) (*Result, error) { return StrategyAA.Run(in) }

func aaRun(in Input) (*Result, error) {
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

	sky := &st.sky
	if err := sky.Reset(ctx, rd, p, in.FocalID); err != nil {
		return nil, err
	}
	qt, err := st.resetTree(&in)
	if err != nil {
		return nil, err
	}

	insert := func(recs []skyline.Record) error {
		for _, r := range recs {
			qt.Insert(&quadtree.HalfspaceRef{
				H:         geom.RecordHalfspace(r.Point, p),
				RecordID:  r.ID,
				Augmented: true,
			})
			res.Stats.HalfspacesInserted++
		}
		return qt.Err()
	}
	first, err := sky.Skyline()
	if err != nil {
		return nil, err
	}
	if err := insert(first); err != nil {
		return nil, err
	}

	oStar := -1 // minimum accurate cell order found so far (-1 = none)
	var finalCells []foundCell
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Stats.Iterations++
		minO, cells, err := collectCells(ctx, qt, &in, &res.Stats, oStar, st, true)
		if err != nil {
			return nil, err
		}
		if minO < 0 {
			if len(st.truncated) > 0 { // its leaves hold cells it did not reach
				return nil, fmt.Errorf("%w: no cell found", ErrLeafTruncated)
			}
			// Empty arrangement: no incomparable records; p is top everywhere.
			finalCells = nil
			oStar = 0
			break
		}

		// Partition candidate cells into accurate ones and the augmented
		// half-spaces that make the rest inaccurate.
		expand := make(map[int64]bool)
		accurate := cells[:0]
		for _, fc := range cells {
			var pending []int64
			for _, refIdx := range fc.containingRefs() {
				if ref := qt.Ref(refIdx); ref.Augmented {
					pending = append(pending, ref.RecordID)
				}
			}
			if len(pending) == 0 {
				if oStar < 0 || fc.order < oStar {
					oStar = fc.order
				}
				accurate = append(accurate, fc)
				continue
			}
			for _, id := range pending {
				expand[id] = true
			}
		}
		if len(expand) == 0 {
			// Only the last iteration's cells are the answer, and every leaf
			// that truncated before was enumerated afresh in it.
			if err := st.expandLeftOut(qt, oStar, expand); err != nil {
				return nil, err
			}
		}
		if len(expand) == 0 {
			finalCells = accurate
			break
		}
		// Refining hopeless regions is wasted work: tell the quad-tree the
		// current interim bound before the expansion inserts half-spaces.
		bound := minO
		if oStar >= 0 && oStar < bound {
			bound = oStar
		}
		qt.SetSplitBound(bound + in.Tau)
		for _, id := range sortedIDs(expand) {
			ref, ok := qt.RefByRecord(id)
			if !ok {
				return nil, fmt.Errorf("core: AA expansion of unknown record %d", id)
			}
			ref.Augmented = false
			uncovered, err := sky.Expand(id)
			if err != nil {
				return nil, err
			}
			if err := insert(uncovered); err != nil {
				return nil, err
			}
		}
	}

	regions := make([]Region, 0, len(finalCells))
	for _, fc := range finalCells {
		regions = append(regions, makeRegion(qt, fc, in.CollectRecordIDs))
	}
	finishResult(res, regions, oStar, in.Tau, dom)
	res.Stats.Dominators = dom
	res.Stats.IncomparableAccessed = sky.Accessed()
	res.Stats.IO = tr.Reads()
	res.Stats.CPUTime = timeNow().Sub(start)
	return res, nil
}
