package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"repro"
	"repro/internal/cellenum"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/lp"
	"repro/internal/mmap"
	"repro/internal/pager"
	"repro/internal/quadtree"
	"repro/internal/rbtree"
	"repro/internal/rstar"
	"repro/internal/skyline"
	"repro/internal/snapshot"
	"repro/internal/vecmath"
)

// The traced run of an engine workload. Tracing inside the program is a
// later issue, so the spans here are recorded from outside, around calls
// into each layer's public functions. Engine.Query hides its layers behind
// an unexported tree, so the harness keeps a mirror of the dataset's index
// (same points, same build calls, hence the same pages) and, per focal,
// re-drives the query on the mirror: the control flow of AA (of AA2D at
// d=2) restated here over the layers' public functions, each call into a
// layer inside a span and fed by what the layer before it produced. The
// restatement is checked against the real query every time — same minimum
// order, same records surfaced, same number of LP calls — so the spans are
// those of the work the query did. core.run, the real algorithm on the
// mirror, is timed beside the replay; what it takes beyond the replayed
// layer calls is core's own bookkeeping.

// mirror is the harness's copy of a dataset's index.
type mirror struct {
	pts     []vecmath.Point
	tree    *rstar.Tree
	src     pager.Source
	mapping *mmap.Mapping
}

func (m *mirror) close() {
	if m.mapping != nil {
		m.mapping.Close()
	}
}

// heapMirror bulk-loads pts the way repro.NewDataset does.
func heapMirror(pts []vecmath.Point) (*mirror, time.Duration, error) {
	store := pager.NewStore(0)
	tree, err := rstar.New(store, len(pts[0]), rstar.Options{DirectMemory: true})
	if err != nil {
		return nil, 0, err
	}
	t := time.Now()
	if err := tree.BulkLoad(pts, nil); err != nil {
		return nil, 0, err
	}
	if err := tree.Finalize(); err != nil {
		return nil, 0, err
	}
	d := time.Since(t)
	store.ResetStats()
	return &mirror{pts: pts, tree: tree, src: store}, d, nil
}

// mappedMirror maps a v2 snapshot the way repro.LoadSnapshotFile does and
// returns how long the mapping took.
func mappedMirror(path string) (m *mirror, mapD time.Duration, err error) {
	t := time.Now()
	mp, err := mmap.Open(path)
	if err != nil {
		return nil, 0, err
	}
	mapD = time.Since(t)
	v, err := snapshot.Open(mp.Data())
	if err != nil {
		mp.Close()
		return nil, 0, err
	}
	flat := v.Points()
	pts := make([]vecmath.Point, v.Count)
	for i := range pts {
		pts[i] = vecmath.Point(flat[i*v.Dim : (i+1)*v.Dim : (i+1)*v.Dim])
	}
	pages := make([]pager.MappedPage, v.NumPages())
	for i := range pages {
		id, data := v.Page(i)
		pages[i] = pager.MappedPage{ID: pager.PageID(id), Data: data}
	}
	src, err := pager.NewMapped(v.PageSize, pages)
	if err != nil {
		mp.Close()
		return nil, 0, err
	}
	tree, err := rstar.RestoreFrom(src, v.Dim, pager.PageID(v.Root), v.Height, int64(v.Count), rstar.Options{})
	if err != nil {
		mp.Close()
		return nil, 0, err
	}
	return &mirror{pts: pts, tree: tree, src: src, mapping: mp}, mapD, nil
}

// pageReadNs times one tracked read of every page of src, several times
// over, and returns the mean per read.
func pageReadNs(src pager.Source) float64 {
	var ids []pager.PageID
	src.ForEachPage(func(id pager.PageID, _ []byte) error {
		ids = append(ids, id)
		return nil
	})
	if len(ids) == 0 {
		return 0
	}
	const rounds = 20
	var tr pager.Tracker
	t := time.Now()
	for r := 0; r < rounds; r++ {
		for _, id := range ids {
			if _, err := src.ReadTracked(id, &tr); err != nil {
				return 0
			}
		}
	}
	return float64(time.Since(t).Nanoseconds()) / float64(rounds*len(ids))
}

// snapshotLayer times the snapshot codec on the file at path and adds
// snapshot.encode_ms, snapshot.open_ms, snapshot.decode_ms and
// snapshot.bytes to the metrics.
func snapshotLayer(path string, metrics map[string]sample) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	t := time.Now()
	snap, err := snapshot.DecodeV2(data)
	if err != nil {
		return err
	}
	decode := time.Since(t)
	t = time.Now()
	again, err := snapshot.EncodeV2(snap)
	if err != nil {
		return err
	}
	encode := time.Since(t)
	if len(again) != len(data) {
		return fmt.Errorf("snapshot re-encodes to %d bytes, file has %d", len(again), len(data))
	}
	t = time.Now()
	if _, err := snapshot.Open(data); err != nil {
		return err
	}
	open := time.Since(t)
	metrics["snapshot.decode_ms"] = sample{ms(decode), 1}
	metrics["snapshot.encode_ms"] = sample{ms(encode), 1}
	metrics["snapshot.open_ms"] = sample{ms(open), 1}
	metrics["snapshot.bytes"] = sample{float64(len(data)), 1}
	return nil
}

// maxReplayCells bounds how many of a focal's final cells have their
// constraint sets solved once more through geom and lp directly.
const maxReplayCells = 64

// replayTotals accumulates what the replays of a run measured beyond span
// durations: counts, and allocations made inside single layers.
type replayTotals struct {
	focals        int
	leaves        int // quad-tree leaves when the query ended
	leavesVisited int // leaf enumerations
	lpCalls       int // LP calls made by those enumerations
	cells         int // cells they returned
	solves        int // lp.Solver.Solve calls replayed
	leavesCounted int // of those, the ones whose allocations were counted
	buildMallocs  float64
	enumMallocs   float64
	solveMallocs  float64
}

// replayer holds the pooled scratch the real query also pools: one
// enumerator, one feasibility checker, one LP solver.
type replayer struct {
	tr     *tracer
	m      *mirror
	enum   cellenum.Enumerator
	feas   geom.Feasibility
	solver lp.Solver
	totals replayTotals
}

// replay re-drives one focal's query on the mirror, inside an open "replay"
// span, and fails if it diverges from res, the real query's answer.
func (r *replayer) replay(focalID int, res *repro.Result) error {
	tr, tree := r.tr, r.m.tree
	p := r.m.pts[focalID]
	id := int64(focalID)
	var tracker pager.Tracker
	rd := tree.Reader(&tracker)
	r.totals.focals++

	if err := r.replayIndex(rd, p, id); err != nil {
		return err
	}
	var sky *skyline.Maintainer
	var first []skyline.Record
	var err error
	tr.do("skyline.build", func() {
		if sky, err = skyline.NewForQuery(context.Background(), rd, p, id); err == nil {
			first, err = sky.Skyline()
		}
	})
	if err != nil {
		return err
	}
	lpBefore := r.totals.lpCalls
	var minOrder int
	if tree.Dim() == 2 {
		minOrder, err = r.replayAA2D(p, sky, first)
	} else {
		minOrder, err = r.replayAA(p, sky, first)
	}
	if err != nil {
		return err
	}
	if lps := int64(r.totals.lpCalls - lpBefore); minOrder != res.MinOrder || sky.Accessed() != res.Stats.IncomparableAccessed || lps != res.Stats.LPCalls {
		return fmt.Errorf("replay diverged: min order %d, %d records surfaced, %d LP calls; the query had %d, %d, %d",
			minOrder, sky.Accessed(), lps, res.MinOrder, res.Stats.IncomparableAccessed, res.Stats.LPCalls)
	}
	return nil
}

// replayIndex is the part of the pipeline every algorithm starts with: the
// dominator count, and the scan for incomparable records that BA and FCA run
// in full (AA reads the same pages through the skyline instead).
func (r *replayer) replayIndex(rd rstar.Reader, p vecmath.Point, id int64) error {
	tr := r.tr
	dim := len(p)
	var err error
	tr.do("rstar.count_dominators", func() { _, err = core.CountDominators(rd, p) })
	if err != nil {
		return err
	}
	tr.do("rstar.scan", func() {
		lo, hi := make(vecmath.Point, dim), make(vecmath.Point, dim)
		for i := range lo {
			lo[i], hi[i] = -math.MaxFloat64, math.MaxFloat64
		}
		incomparable := 0
		err = rd.RangeSearch(geom.Rect{Lo: lo, Hi: hi}, func(it rstar.Item) bool {
			if it.RecordID != id && vecmath.Compare(it.Point, p) == vecmath.Incomparable {
				incomparable++
			}
			return true
		})
	})
	return err
}

// foundCell is a cell an enumeration returned, with its leaf and order.
type foundCell struct {
	leaf  quadtree.Leaf
	cell  cellenum.Cell
	order int
}

// refs lists the half-spaces containing the cell: those containing its
// whole leaf, and the partial ones on whose inside it lies.
func (fc *foundCell) refs() []int {
	out := fc.leaf.Full()
	partial := fc.leaf.Partial()
	for _, i := range fc.cell.In {
		out = append(out, partial[i])
	}
	return out
}

// leafEntry memoises a leaf's enumeration across iterations, as AA does.
type leafEntry struct {
	version int
	out     cellenum.Result
}

// answers reports whether the cached enumeration is complete up to maxW.
func (e *leafEntry) answers(maxW int) bool {
	out := &e.out
	need := maxW
	if need < 0 || need > out.MaxPossibleWeight {
		need = out.MaxPossibleWeight
	}
	if out.MinWeight >= 0 && out.MinWeight < need {
		need = out.MinWeight
	}
	return !out.Truncated && out.CompleteUpTo >= need
}

// replayAA is the advanced approach at τ=0 over public layer calls: the
// skyline's half-spaces go into a quad-tree as augmented; each iteration
// enumerates leaves in ascending |Fl| under a running bound, keeps the
// minimum-order cells, and expands the augmented half-spaces covering them,
// until every kept cell is covered by none.
func (r *replayer) replayAA(p vecmath.Point, sky *skyline.Maintainer, first []skyline.Record) (int, error) {
	tr := r.tr
	dr := len(p) - 1
	qt, err := quadtree.New(dr, quadtree.Options{})
	if err != nil {
		return 0, err
	}
	insert := func(recs []skyline.Record) {
		tr.do("quadtree.insert", func() {
			for _, rec := range recs {
				qt.Insert(&quadtree.HalfspaceRef{H: geom.RecordHalfspace(rec.Point, p), RecordID: rec.ID, Augmented: true})
			}
		})
	}
	// Allocations are counted over the first iteration only, the build from
	// the skyline set and its leaf loop: reading the allocator's counters
	// stops the world, and doing so around every later call would cost more
	// than the calls.
	r.totals.buildMallocs += mallocsDuring(func() { insert(first) })

	cache := map[int]leafEntry{}
	oStar := -1
	var final []foundCell
	for iter := 0; ; iter++ {
		minO, cells := r.collectCells(qt, oStar, cache, iter == 0)
		if minO < 0 {
			oStar = 0
			break
		}
		expand := map[int64]bool{}
		accurate := cells[:0]
		for _, fc := range cells {
			pending := false
			for _, idx := range fc.refs() {
				if ref := qt.Ref(idx); ref.Augmented {
					expand[ref.RecordID] = true
					pending = true
				}
			}
			if !pending {
				if oStar < 0 || fc.order < oStar {
					oStar = fc.order
				}
				accurate = append(accurate, fc)
			}
		}
		if len(expand) == 0 {
			final = accurate
			break
		}
		bound := minO
		if oStar >= 0 && oStar < bound {
			bound = oStar
		}
		qt.SetSplitBound(bound)
		ids := make([]int64, 0, len(expand))
		for id := range expand {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			ref, _ := qt.RefByRecord(id)
			ref.Augmented = false
			var uncovered []skyline.Record
			tr.do("skyline.expand", func() { uncovered, err = sky.Expand(id) })
			if err != nil {
				return 0, err
			}
			insert(uncovered)
		}
	}
	r.totals.leaves += len(qt.Leaves())
	return oStar, r.resolve(qt, dr, final)
}

// collectCells is one iteration's leaf loop: leaves in ascending |Fl|, each
// enumerated up to the weight the running bound leaves room for, unless an
// earlier iteration's enumeration of the unchanged leaf already answers.
func (r *replayer) collectCells(qt *quadtree.Tree, orderCap int, cache map[int]leafEntry, countMallocs bool) (int, []foundCell) {
	if countMallocs {
		var best int
		var cells []foundCell
		visited := r.totals.leavesVisited
		r.totals.enumMallocs += mallocsDuring(func() { best, cells = r.collectCells(qt, orderCap, cache, false) })
		r.totals.leavesCounted += r.totals.leavesVisited - visited
		return best, cells
	}
	leaves := byFullCount(qt.Leaves())
	best := -1
	bound := func() int {
		b := orderCap
		if best >= 0 && (b < 0 || best < b) {
			b = best
		}
		return b
	}
	var cells []foundCell
	var partial []geom.Halfspace
	for _, leaf := range leaves {
		b := bound()
		if b >= 0 && leaf.FullCount() > b {
			break // ascending |Fl|: every later leaf is prunable too
		}
		maxW := -1
		if b >= 0 {
			maxW = b - leaf.FullCount()
		}
		ent, ok := cache[leaf.NodeID()]
		if !ok || ent.version != leaf.Version() || !ent.answers(maxW) {
			partial = partial[:0]
			for _, h := range leaf.Partial() {
				partial = append(partial, qt.Ref(h).H)
			}
			r.tr.do("cellenum.enumerate", func() {
				ent.out = r.enum.Enumerate(leaf.Box(), partial, cellenum.Config{
					MaxWeight: maxW,
					Seed:      int64(leaf.NodeID())<<16 + int64(leaf.Version()),
				})
			})
			r.totals.leavesVisited++
			r.totals.lpCalls += ent.out.LPCalls
			r.totals.cells += len(ent.out.Cells)
			if !ent.out.Truncated {
				ent.version = leaf.Version()
				cache[leaf.NodeID()] = ent
			}
		}
		for _, c := range ent.out.Cells {
			order := leaf.FullCount() + c.POrder()
			if b := bound(); b >= 0 && order > b {
				continue
			}
			if best < 0 || order < best {
				best = order
			}
			cells = append(cells, foundCell{leaf, c, order})
		}
	}
	if b := bound(); b >= 0 {
		kept := cells[:0]
		for _, fc := range cells {
			if fc.order <= b {
				kept = append(kept, fc)
			}
		}
		cells = kept
	}
	return best, cells
}

// byFullCount orders leaves by ascending |Fl|, keeping the quad-tree's
// depth-first order within a count (a counting sort, as in core).
func byFullCount(leaves []quadtree.Leaf) []quadtree.Leaf {
	var buckets [][]quadtree.Leaf
	for _, l := range leaves {
		for len(buckets) <= l.FullCount() {
			buckets = append(buckets, nil)
		}
		buckets[l.FullCount()] = append(buckets[l.FullCount()], l)
	}
	out := leaves[:0]
	for _, b := range buckets {
		out = append(out, b...)
	}
	return out
}

// resolve solves the constraint sets of the final cells once more, through
// geom.Feasibility and through lp.Solver directly. The constraint set of a
// cell is its leaf's box, the domain simplex, and each partial half-space or
// its complement.
func (r *replayer) resolve(qt *quadtree.Tree, dr int, cells []foundCell) error {
	tr := r.tr
	if len(cells) > maxReplayCells {
		cells = cells[:maxReplayCells]
	}
	sets := make([][]geom.Halfspace, len(cells))
	probs := make([]lp.Problem, len(cells))
	for k, fc := range cells {
		cons := append(geom.BoxConstraints(fc.leaf.Box()), geom.SimplexConstraints(dr)...)
		in := map[int]bool{}
		for _, i := range fc.cell.In {
			in[i] = true
		}
		for i, h := range fc.leaf.Partial() {
			if hs := qt.Ref(h).H; in[i] {
				cons = append(cons, hs)
			} else {
				cons = append(cons, hs.Complement())
			}
		}
		sets[k], probs[k] = cons, marginLP(cons)
	}
	for _, cons := range sets {
		ok := false
		tr.do("geom.feasible", func() { _, _, ok = r.feas.FeasibleInterior(cons) })
		if !ok {
			return fmt.Errorf("replay: a cell the enumerator returned has no interior")
		}
	}
	var err error
	r.totals.solveMallocs += mallocsDuring(func() {
		for _, prob := range probs {
			tr.do("lp.solve", func() { _, err = r.solver.Solve(prob) })
			if err != nil {
				return
			}
			r.totals.solves++
		}
	})
	return err
}

// halfline is the d=2 half-space: record r outranks the focal where q1 > v
// (right) or where q1 < v.
type halfline struct {
	v         float64
	right     bool
	id        int64
	augmented bool
}

func (h *halfline) contains(lo, hi float64) bool {
	if h.right {
		return h.v <= lo
	}
	return h.v >= hi
}

// boundary collects the half-lines that start at one q1 value.
type boundary struct{ rights, lefts []*halfline }

// replayAA2D is the d=2 specialisation at τ=0: half-lines in a red-black
// tree, cells the intervals between boundaries, orders from one sweep per
// iteration, and the same expansion rule as AA.
func (r *replayer) replayAA2D(p vecmath.Point, sky *skyline.Maintainer, first []skyline.Record) (int, error) {
	arr := rbtree.New()
	byRecord := map[int64]*halfline{}
	var all []*halfline
	insert := func(recs []skyline.Record) {
		for _, rec := range recs {
			a := (rec.Point[0] - rec.Point[1]) - (p[0] - p[1])
			hl := &halfline{v: (p[1] - rec.Point[1]) / a, right: a > 0, id: rec.ID, augmented: true}
			byRecord[rec.ID] = hl
			all = append(all, hl)
			node, _ := arr.Insert(hl.v, &boundary{})
			if bd := node.Value.(*boundary); hl.right {
				bd.rights = append(bd.rights, hl)
			} else {
				bd.lefts = append(bd.lefts, hl)
			}
		}
	}
	insert(first)
	type interval struct {
		lo, hi     float64
		order, aug int
	}
	oStar := -1
	for {
		cur, curAug := 0, 0
		for _, hl := range all {
			if (hl.right && hl.v <= 0) || (!hl.right && hl.v > 0) {
				cur++
				if hl.augmented {
					curAug++
				}
			}
		}
		var cells []interval
		lo, minO := 0.0, -1
		emit := func(hi float64) {
			cells = append(cells, interval{lo, hi, cur, curAug})
			if minO < 0 || cur < minO {
				minO = cur
			}
			lo = hi
		}
		arr.Ascend(func(n *rbtree.Node) bool {
			if n.Key <= 0 {
				return true
			}
			if n.Key >= 1 {
				return false
			}
			if n.Key > lo {
				emit(n.Key)
			}
			bd := n.Value.(*boundary)
			cur += len(bd.rights) - len(bd.lefts)
			for _, hl := range bd.rights {
				if hl.augmented {
					curAug++
				}
			}
			for _, hl := range bd.lefts {
				if hl.augmented {
					curAug--
				}
			}
			return true
		})
		emit(1)
		bound := minO
		if oStar >= 0 && oStar < bound {
			bound = oStar
		}
		expand := map[int64]bool{}
		for _, c := range cells {
			switch {
			case c.order > bound:
			case c.aug == 0:
				if oStar < 0 || c.order < oStar {
					oStar = c.order
				}
			default:
				for _, hl := range all {
					if hl.augmented && hl.contains(c.lo, c.hi) {
						expand[hl.id] = true
					}
				}
			}
		}
		if len(expand) == 0 {
			if oStar < 0 {
				oStar = minO
			}
			return max(oStar, 0), nil
		}
		ids := make([]int64, 0, len(expand))
		for id := range expand {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			byRecord[id].augmented = false
			var uncovered []skyline.Record
			var err error
			r.tr.do("skyline.expand", func() { uncovered, err = sky.Expand(id) })
			if err != nil {
				return 0, err
			}
			insert(uncovered)
		}
	}
}

// marginLP states the interior-feasibility test of a constraint set as the
// LP geom.Feasibility solves: maximise the margin ε subject to
// a·x ≥ b + ε‖a‖ for every half-space, with ε capped.
func marginLP(hs []geom.Halfspace) lp.Problem {
	dr := hs[0].Dim()
	prob := lp.Problem{C: make([]float64, dr+1)}
	prob.C[dr] = 1
	for _, h := range hs {
		norm := 0.0
		for _, v := range h.A {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		row := make([]float64, dr+1)
		for j, v := range h.A {
			row[j] = -v / norm
		}
		row[dr] = 1
		prob.A = append(prob.A, row)
		prob.B = append(prob.B, -h.B/norm)
	}
	capRow := make([]float64, dr+1)
	capRow[dr] = 1
	prob.A = append(prob.A, capRow)
	prob.B = append(prob.B, 10)
	return prob
}
