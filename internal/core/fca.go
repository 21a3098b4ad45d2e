package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/rstar"
	"repro/internal/vecmath"
)

// FCA is the first-cut algorithm for d = 2 (paper Section 4). The score of
// every record is a line in the (q1, score) plane; each intersection of an
// incomparable record's line with the focal record's line flips their
// relative order. Sweeping the intersections in increasing q1 yields the
// order of p in every interval of the (1-dimensional) reduced query space.
//
// Like the paper's enhanced FCA, dominators and dominees are pruned via the
// R*-tree before the sweep.
func FCA(in Input) (*Result, error) { return StrategyFCA.Run(in) }

func fcaRun(in Input) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.Tree.Dim() != 2 {
		return nil, fmt.Errorf("core: FCA requires d = 2, got %d", in.Tree.Dim())
	}
	start := timeNow()
	ctx, rd, tr := in.begin()
	res := &Result{}
	p := in.Focal

	dom, err := CountDominators(rd, p)
	if err != nil {
		return nil, err
	}

	// Sweep state: above0 counts incomparable records scoring above p as
	// q1 -> 0+; every crossing inside (0,1) carries the order delta +-1.
	type crossing struct {
		t     float64
		delta int
		id    int64
	}
	var crossings []crossing
	above := make(map[int64]bool) // records above p at the current q1
	above0 := 0
	var nInc int64
	err = scanIncomparable(ctx, rd, p, in.FocalID, func(r vecmath.Point, id int64) error {
		nInc++
		// score(r) - score(p) at q1 is (r2-p2) + a*q1 with a the slope gap.
		a := (r[0] - r[1]) - (p[0] - p[1])
		c := r[1] - p[1]
		isAbove0 := c > 0 || (c == 0 && a > 0)
		if isAbove0 {
			above0++
		}
		if a == 0 {
			// Parallel score lines never reorder; for incomparable records
			// this cannot happen (it would imply dominance), but guard for
			// degenerate inputs.
			return nil
		}
		t := -c / a
		if t <= 0 || t >= 1 {
			return nil // reordering outside the permissible domain
		}
		delta := +1
		if isAbove0 {
			delta = -1 // r drops below p at t
		}
		if in.CollectRecordIDs {
			above[id] = isAbove0
		}
		crossings = append(crossings, crossing{t: t, delta: delta, id: id})
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Stats.IncomparableAccessed = nInc
	sort.Slice(crossings, func(i, j int) bool { return crossings[i].t < crossings[j].t })

	// Build intervals between consecutive distinct crossing values.
	type interval struct {
		lo, hi float64
		order  int
	}
	var intervals []interval
	cur := above0
	lo := 0.0
	minOrder := above0
	i := 0
	for i <= len(crossings) {
		var hi float64
		if i == len(crossings) {
			hi = 1
		} else {
			hi = crossings[i].t
		}
		if hi > lo {
			intervals = append(intervals, interval{lo: lo, hi: hi, order: cur})
			if cur < minOrder {
				minOrder = cur
			}
		}
		if i == len(crossings) {
			break
		}
		// Apply every crossing at this t (ties change the order at once).
		t := crossings[i].t
		for i < len(crossings) && crossings[i].t == t {
			cur += crossings[i].delta
			if in.CollectRecordIDs {
				above[crossings[i].id] = !above[crossings[i].id]
			}
			i++
		}
		lo = t
	}
	if len(intervals) == 0 {
		// No incomparable records at all: the whole domain is one region.
		intervals = append(intervals, interval{lo: 0, hi: 1, order: 0})
		minOrder = 0
	}

	var regions []Region
	for _, iv := range intervals {
		if iv.order > minOrder+in.Tau {
			continue
		}
		reg := Region{
			Box:     geom.MustRect(vecmath.Point{iv.lo}, vecmath.Point{iv.hi}),
			Witness: vecmath.Point{(iv.lo + iv.hi) / 2},
			Order:   iv.order,
		}
		if in.CollectRecordIDs {
			reg.OutrankIDs, err = outranksAt2D(ctx, &in, rd, reg.Witness[0])
			if err != nil {
				return nil, err
			}
		}
		regions = append(regions, reg)
	}
	finishResult(res, regions, minOrder, in.Tau, dom)
	res.Stats.Dominators = dom
	res.Stats.Iterations = 1
	res.Stats.IO = tr.Reads()
	res.Stats.CPUTime = timeNow().Sub(start)
	return res, nil
}

// outranksAt2D recomputes the set of incomparable records outranking p at
// a specific q1 (only used when record IDs are requested; it re-scans and
// therefore costs extra I/O, which is attributed to the query honestly).
// IDs are returned in ascending order — the scan visits them in R*-tree
// traversal order, which depends on the tree's shape, and the answer must
// not.
func outranksAt2D(ctx context.Context, in *Input, rd rstar.Reader, q1 float64) ([]int64, error) {
	var ids []int64
	q := vecmath.Point{q1, 1 - q1}
	ps := in.Focal.Dot(q)
	err := scanIncomparable(ctx, rd, in.Focal, in.FocalID, func(r vecmath.Point, id int64) error {
		if r.Dot(q) > ps {
			ids = append(ids, id)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}
