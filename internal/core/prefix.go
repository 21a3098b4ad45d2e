package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/pager"
	"repro/internal/rstar"
	"repro/internal/skyline"
	"repro/internal/vecmath"
)

// GroupPrefix is the shared prefix of a group of MaxRank queries: one
// classification pass over the R*-tree against the group's bounding box
// [glo, ghi] (the componentwise min / max of the focals) replaces the
// per-query dominator count and incomparable-set scan of every member.
// The pass exploits that classification against the box is conclusive for
// most records regardless of which focal is asked:
//
//   - r <= glo: r is dominated by (or ties) every focal — contributes to
//     no member's dominator count or incomparable set;
//   - r >= ghi: r dominates-or-equals every focal — one shared counter,
//     corrected per member only for focals exactly equal to ghi (for
//     those, records equal to ghi are coordinate ties, not dominators);
//   - r strictly below glo on one axis and strictly above ghi on another:
//     incomparable to every focal (glo[i] <= p[i] and ghi[j] >= p[j] for
//     each member p) — one shared record list;
//   - everything else (the residual fringe between the two corners) is
//     classified per focal with an exact vecmath.Compare.
//
// Index subtrees prune exactly as in the per-query scan: an MBR with
// Hi <= glo is skipped outright, and an MBR with Lo >= ghi contributes its
// aggregate record count to the shared dominator counter without being
// read. The tighter the group clusters, the closer the pass is to a
// single query's scan.
//
// Per member, Dominators() and the incomparable set are exactly what
// CountDominators and scanIncomparable would produce (the focal record
// itself, when part of the dataset, classifies as Same and drops out), so
// downstream arrangement construction — and therefore regions, ranks and
// witnesses — is bit-identical to independent execution. Stats.IO
// legitimately differs, as documented on Result: members report the
// shared scan's pages, each member charging the full scan once.
//
// The prefix always materialises every member's incomparable set — what BA
// and FCA scan per query anyway, so the group pays one pass instead of one
// per member. The lazily-expanding AA and AA2D read only n_a records from
// the tree; a shared pass has nothing to offer them (a dominators-only
// "light" prefix was measured and lost, see docs/PERFORMANCE.md), so the
// engine never hands them one.
type GroupPrefix struct {
	focals []vecmath.Point
	glo    vecmath.Point
	ghi    vecmath.Point

	sharedDom  int64  // records >= ghi: dominator-or-equal for every focal
	eqGhi      int64  // records exactly == ghi (counted only when some focal is ghi)
	focalEqGhi []bool // members whose focal equals ghi

	sharedInc []skyline.Record   // incomparable to every member, ascending ID
	domExtra  []int64            // per member: residual records dominating it
	incExtra  [][]skyline.Record // per member: residual incomparables, ascending ID

	io int64 // pages the shared scan read
}

// BuildGroupPrefix runs the shared classification pass for a group of
// focals over tree. All focals must have the tree's dimensionality. The
// scan's page accesses are retrievable per member via FocalPrefix.IO.
func BuildGroupPrefix(ctx context.Context, tree *rstar.Tree, focals []vecmath.Point) (*GroupPrefix, error) {
	if tree == nil {
		return nil, fmt.Errorf("core: nil tree")
	}
	if len(focals) == 0 {
		return nil, fmt.Errorf("core: empty focal group")
	}
	dim := tree.Dim()
	for i, p := range focals {
		if len(p) != dim {
			return nil, fmt.Errorf("core: group focal %d dim %d != tree dim %d", i, len(p), dim)
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	g := &GroupPrefix{
		focals:     focals,
		glo:        focals[0].Clone(),
		ghi:        focals[0].Clone(),
		focalEqGhi: make([]bool, len(focals)),
		domExtra:   make([]int64, len(focals)),
		incExtra:   make([][]skyline.Record, len(focals)),
	}
	for _, p := range focals[1:] {
		for i, v := range p {
			if v < g.glo[i] {
				g.glo[i] = v
			}
			if v > g.ghi[i] {
				g.ghi[i] = v
			}
		}
	}
	anyEqGhi := false
	for i, p := range focals {
		if p.Equal(g.ghi) {
			g.focalEqGhi[i] = true
			anyEqGhi = true
		}
	}
	tr := new(pager.Tracker)
	rd := tree.Reader(tr)
	err := rd.Descend(ctx, func(e *rstar.Entry, leaf bool) (bool, error) {
		switch {
		case leaf:
			g.classify(e.Point(), e.RecordID)
		case allGeq(g.glo, e.Rect.Hi):
			// every record inside is a dominee (or tie) of every member
		case allGeq(e.Rect.Lo, g.ghi):
			g.sharedDom += e.Count // every record inside dominates-or-equals every member
		default:
			return true, nil
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	if anyEqGhi {
		// Records exactly equal to ghi landed in sharedDom (they
		// dominate-or-equal every member), but for a member whose focal IS
		// ghi they are coordinate ties, not dominators. One aggregate point
		// count corrects every such member; the scan cannot tally them
		// itself because the Lo >= ghi subtree shortcut skips their nodes.
		eq, err := rd.RangeCount(geom.PointRect(g.ghi))
		if err != nil {
			return nil, err
		}
		g.eqGhi = eq
	}
	byID := func(recs []skyline.Record) {
		sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	}
	byID(g.sharedInc)
	for _, recs := range g.incExtra {
		byID(recs)
	}
	g.io = tr.Reads()
	return g, nil
}

func (g *GroupPrefix) classify(r vecmath.Point, id int64) {
	if allGeq(g.glo, r) {
		return
	}
	if allGeq(r, g.ghi) {
		g.sharedDom++
		return
	}
	// Strictly below glo on one axis and strictly above ghi on another:
	// incomparable to every member, whichever focal is asked.
	below, above := false, false
	for i, v := range r {
		if v < g.glo[i] {
			below = true
		} else if v > g.ghi[i] {
			above = true
		}
	}
	if below && above {
		g.sharedInc = append(g.sharedInc, skyline.Record{Point: r.Clone(), ID: id})
		return
	}
	// Residual fringe: exact per-member classification. One clone serves
	// every member's list — downstream consumers treat points as read-only.
	var cloned vecmath.Point
	for i, p := range g.focals {
		switch vecmath.Compare(r, p) {
		case vecmath.Dominates:
			g.domExtra[i]++
		case vecmath.Incomparable:
			if cloned == nil {
				cloned = r.Clone()
			}
			g.incExtra[i] = append(g.incExtra[i], skyline.Record{Point: cloned, ID: id})
		}
	}
}

// Len returns the number of group members.
func (g *GroupPrefix) Len() int { return len(g.focals) }

// Focal returns member i's view of the prefix, suitable for Input.Shared.
func (g *GroupPrefix) Focal(i int) *FocalPrefix { return &FocalPrefix{g: g, i: i} }

// FocalPrefix is one group member's view of a GroupPrefix.
type FocalPrefix struct {
	g *GroupPrefix
	i int
}

func (f *FocalPrefix) focal() vecmath.Point { return f.g.focals[f.i] }

// Dominators returns the member's |D+|, exactly equal to what
// CountDominators reports for its focal.
func (f *FocalPrefix) Dominators() int64 {
	d := f.g.sharedDom + f.g.domExtra[f.i]
	if f.g.focalEqGhi[f.i] {
		d -= f.g.eqGhi
	}
	return d
}

// IO returns the page accesses of the shared classification pass. Each
// member charges the full scan to its Stats.IO — summing members'
// Stats.IO therefore multiply-counts the shared pages.
func (f *FocalPrefix) IO() int64 { return f.g.io }

// ForEachIncomparable visits the member's incomparable records in
// ascending record-ID order, merging the group-wide list with the
// member's residual list (their ID sets are disjoint). Points are shared
// read-only; callers must not mutate or retain-and-modify them.
func (f *FocalPrefix) ForEachIncomparable(fn func(pt vecmath.Point, id int64) error) error {
	a, b := f.g.sharedInc, f.g.incExtra[f.i]
	for len(a) > 0 || len(b) > 0 {
		var r skyline.Record
		if len(b) == 0 || (len(a) > 0 && a[0].ID < b[0].ID) {
			r, a = a[0], a[1:]
		} else {
			r, b = b[0], b[1:]
		}
		if err := fn(r.Point, r.ID); err != nil {
			return err
		}
	}
	return nil
}

// Records materialises the member's incomparable set in ascending
// record-ID order (the seed for skyline.NewFromRecords).
func (f *FocalPrefix) Records() []skyline.Record {
	out := make([]skyline.Record, 0, len(f.g.sharedInc)+len(f.g.incExtra[f.i]))
	_ = f.ForEachIncomparable(func(pt vecmath.Point, id int64) error {
		out = append(out, skyline.Record{Point: pt, ID: id})
		return nil
	})
	return out
}

// dominators resolves the query's |D+|: from the shared prefix when
// present, otherwise by two aggregate range counts.
func (in *Input) dominators(rd rstar.Reader) (int64, error) {
	if in.Shared != nil {
		return in.Shared.Dominators(), nil
	}
	return CountDominators(rd, in.Focal)
}

// eachIncomparable visits the query's incomparable records: from the
// shared prefix when there is one (ascending ID), otherwise by a tree scan
// (leaf order). Both orders feed order-insensitive consumers —
// BA sorts by ID before inserting, FCA accumulates commutative crossings
// — so the answer does not depend on which path ran. A point is valid only
// during the call; fn clones what it keeps.
func (in *Input) eachIncomparable(ctx context.Context, rd rstar.Reader, fn func(pt vecmath.Point, id int64) error) error {
	if in.Shared != nil {
		return in.Shared.ForEachIncomparable(fn)
	}
	return scanIncomparable(ctx, rd, in.Focal, in.FocalID, fn)
}

// resetSkyline aims the state's BBS skyline maintainer at the query:
// seeded from the shared prefix's incomparable set when there is one,
// tree-backed otherwise. The surfacing order — and hence everything
// downstream — is identical (see skyline.NewFromRecords).
func (in *Input) resetSkyline(ctx context.Context, rd rstar.Reader, st *execState) (*skyline.Maintainer, error) {
	if in.Shared != nil {
		st.sky.ResetFromRecords(ctx, in.Shared.Records())
		return &st.sky, nil
	}
	return &st.sky, st.sky.Reset(ctx, rd, in.Focal, in.FocalID)
}

// sharedIO is the I/O the shared prefix performed on this query's behalf;
// it is added to the query's own tracker reads when reporting Stats.IO.
func (in *Input) sharedIO() int64 {
	if in.Shared != nil {
		return in.Shared.IO()
	}
	return 0
}
