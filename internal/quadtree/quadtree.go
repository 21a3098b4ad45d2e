// Package quadtree implements the augmented Quad-tree of Section 5.1 of the
// MaxRank paper: a 2^dr-ary space partitioning of the reduced query space
// whose nodes record, for each inserted half-space, whether it fully
// contains the node (stored only at the highest node where this first
// becomes true, to avoid redundancy) or partly overlaps a leaf.
//
// Leaves split when their partial-overlap set exceeds a threshold, which
// bounds the cost of within-leaf processing (internal/cellenum). Nodes that
// fall entirely outside the domain simplex Σ q_i < 1 are discarded at
// creation (the reduced query space is only "half of the unit hyper-cube").
//
// Both kinds of work are deferred until something needs them (see
// insertAt). A leaf that overflows keeps the list it would split on and
// owes the split; it is carved one level at a time when a scan (Frontier)
// opens it or a half-space the split bound lets through must pass it.
// Under a split bound, a half-space reaching a node whose |F| exceeds it
// waits on the node's pending list until the node is opened. Leaves and
// Stats carry out everything still owed, so every node a caller sees has
// the box and lists eager insertion gives it; only leaf versions differ,
// and a node's ID is its path from the root, whichever order opened it.
package quadtree

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
)

// HalfspaceRef is a registered half-space plus the metadata the MaxRank
// algorithms track per record.
type HalfspaceRef struct {
	H        geom.Halfspace
	RecordID int64
	// Augmented marks half-spaces that may subsume not-yet-surfaced records
	// (AA, Section 6). BA never sets it.
	Augmented bool
}

// Options configures the tree.
type Options struct {
	// MaxPartial is the leaf split threshold on |Pl| (default 12).
	MaxPartial int
	// MaxDepth caps subdivision; a leaf at MaxDepth absorbs any number of
	// partial half-spaces (default DefaultMaxDepth(dr)).
	MaxDepth int
}

// DefaultMaxPartial is the default leaf split threshold.
const DefaultMaxPartial = 12

// defaultMaxDepth caps subdivision by reduced dimensionality: a node has
// 2^dr children, so the worst-case leaf count is 2^(dr·depth); the caps keep
// that below a few hundred thousand. Leaves at the cap simply keep larger
// partial sets, which the within-leaf module handles (at CPU, not memory,
// cost).
func defaultMaxDepth(dr int) int { return DefaultMaxDepth(dr) }

// DefaultMaxDepth returns the depth cap used when Options.MaxDepth is 0,
// by reduced dimensionality. Exported so tooling that reports a persisted
// partitioning configuration (maxrank inspect-snapshot) can show the
// effective cap behind a stored zero.
func DefaultMaxDepth(dr int) int {
	switch dr {
	case 1:
		return 16
	case 2:
		return 9
	case 3:
		return 6
	case 4:
		return 4
	case 5:
		return 3
	default:
		return 2
	}
}

// Tree is the augmented quad-tree, laid out as one arena: nodes in a flat
// slice addressed by int32 index, the 2^dr child slots of every internal
// node in one table, the boxes in one float slab (node i's Lo then Hi at
// i·2·dr) and every full/partial list as a span of one shared index slab.
// Reset truncates the slabs and keeps their capacity, so a pooled Tree
// threads a query's half-spaces without allocating once it is warm. The
// zero Tree is ready for Reset.
type Tree struct {
	dr         int
	maxPartial int
	maxDepth   int
	nodes      []node
	children   []int32   // 2^dr slots per internal node; -1 = outside the simplex
	boxes      []float64 // 2·dr per node
	lists      []int     // backing store of every full and partial span
	refs       []*HalfspaceRef
	byRecord   map[int64]int // record ID -> index in refs
	// coef and neg are what classification reads instead of refs[i].H: per
	// half-space its dr coefficients then B, and a mask whose bit i is set
	// when coefficient i is not >= 0, i.e. when the corner minimising A·x
	// takes Hi on axis i.
	coef []float64
	neg  []uint32
	// rel stacks the child relation tables of the inserts and carvings in
	// progress; sums is childRelations' scratch.
	rel  []geom.BoxRelation
	sums []float64
	// splitBound, when >= 0, stops leaves whose inherited full-containment
	// count already exceeds it from splitting: such leaves are pruned by
	// the |Fl| bound anyway, so refining them is wasted work. AA updates it
	// as its interim result improves.
	splitBound int
	// scanned is set by the first scan (Frontier.Reset, Leaves, Stats).
	scanned bool
	err     error
}

// span locates one list in Tree.lists.
type span struct{ off, n, cap int32 }

type node struct {
	id     uint64 // the path code NodeID returns; see childID
	parent int32  // -1 at the root
	child  int32  // offset of the node's slots in Tree.children; -1 until carved
	depth  int32
	// version increments whenever the leaf's partial set changes; callers
	// use (id, version) to cache within-leaf results.
	version int32
	// owed > 0 marks a node that owes a split: the first owed entries of
	// partial are the list it splits on.
	owed int32
	full span // half-spaces fully containing this node but not its parent
	// partial is a leaf's P_l; past owed, or at an internal node, the
	// half-spaces waiting to be threaded into its children, in insertion
	// order (see insertAt).
	partial span
}

// isLeaf reports whether the node is a leaf and owes no split.
func (n *node) isLeaf() bool { return n.child < 0 && n.owed == 0 }

// arenaLimit bounds the length of every slab, whose offsets are all held
// as int32. It is a variable only so that a test can reach it.
var arenaLimit = math.MaxInt32

var errArenaFull = errors.New("quadtree: arrangement outgrew the arena's int32 offsets")

// grow extends s by n elements, whose contents are unspecified. Capacity
// doubles: append grows a large slice by a quarter, and a cold arena would
// spend its build recopying a multi-megabyte slab.
func grow[T any](s []T, n int) []T {
	need := len(s) + n
	if need > arenaLimit {
		panic(errArenaFull)
	}
	if need <= cap(s) {
		return s[:need]
	}
	out := make([]T, need, max(2*cap(s), need, 64))
	copy(out, s)
	return out
}

// New creates an empty tree over the reduced query space [0,1]^dr on a
// cold arena.
func New(dr int, opts Options) (*Tree, error) {
	t := new(Tree)
	if err := t.Reset(dr, opts); err != nil {
		return nil, err
	}
	return t, nil
}

// Reset empties the tree and reconfigures it for a new arrangement over
// [0,1]^dr, keeping the arena's capacity. Handles obtained before the call
// are invalid.
func (t *Tree) Reset(dr int, opts Options) error {
	if dr < 1 {
		return fmt.Errorf("quadtree: reduced dimensionality %d < 1", dr)
	}
	if dr > 16 {
		return fmt.Errorf("quadtree: reduced dimensionality %d too large (2^dr children)", dr)
	}
	t.Release()
	t.dr = dr
	t.maxPartial = opts.MaxPartial
	if t.maxPartial <= 0 {
		t.maxPartial = DefaultMaxPartial
	}
	t.maxDepth = opts.MaxDepth
	if t.maxDepth <= 0 {
		t.maxDepth = defaultMaxDepth(dr)
	}
	if t.byRecord == nil {
		t.byRecord = make(map[int64]int)
	}
	t.splitBound, t.scanned = -1, false
	t.nodes = append(t.nodes, node{id: 1, parent: -1, child: -1})
	t.boxes = grow(t.boxes, 2*dr)
	for i := 0; i < dr; i++ {
		t.boxes[i], t.boxes[dr+i] = 0, 1
	}
	return nil
}

// Release empties the tree and drops its references to the inserted
// HalfspaceRefs, so that a pooled Tree pins nothing of the query it served.
// The tree is unusable until the next Reset.
func (t *Tree) Release() {
	clear(t.refs)
	if len(t.byRecord) > 1<<12 {
		t.byRecord = nil // clearing a map costs its capacity, on every later query
	} else {
		clear(t.byRecord)
	}
	t.refs, t.nodes, t.children = t.refs[:0], t.nodes[:0], t.children[:0]
	t.boxes, t.lists, t.coef, t.neg = t.boxes[:0], t.lists[:0], t.coef[:0], t.neg[:0]
	t.rel = t.rel[:0] // an overflow may have left a table on it
	t.err = nil
}

// Poison overwrites the arena, through its capacity, with values no tree
// holds (NaN boxes and coefficients, -1 indexes). Tests call it on a
// released tree to show that nothing handed out earlier aliases the arena
// and that Reset rebuilds everything it reads.
func (t *Tree) Poison() {
	fill(t.nodes, node{^uint64(0), -1, -1, -1, -1, -1, span{-1, -1, -1}, span{-1, -1, -1}})
	fill(t.children, -1)
	fill(t.lists, -1)
	fill(t.boxes, math.NaN())
	fill(t.coef, math.NaN())
	fill(t.neg, ^uint32(0))
}

func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// Err reports whether the arrangement outgrew the arena; the tree is then
// incomplete and the query must fail.
func (t *Tree) Err() error { return t.err }

// SetSplitBound limits refinement: leaves whose inherited |Fl| exceeds the
// bound stop splitting (negative = unlimited). Purely a performance control;
// correctness never depends on splits.
func (t *Tree) SetSplitBound(b int) { t.splitBound = b }

// NumHalfspaces returns the number of inserted half-spaces.
func (t *Tree) NumHalfspaces() int { return len(t.refs) }

// Ref returns the registered half-space with the given index.
func (t *Tree) Ref(idx int) *HalfspaceRef { return t.refs[idx] }

// RefByRecord returns the half-space registered for a record ID, if any.
func (t *Tree) RefByRecord(recordID int64) (*HalfspaceRef, bool) {
	idx, ok := t.byRecord[recordID]
	if !ok {
		return nil, false
	}
	return t.refs[idx], true
}

// Insert registers a half-space and threads it through the tree. It returns
// the half-space index. ref.H must not change afterwards: classification
// reads a copy of its coefficients.
func (t *Tree) Insert(ref *HalfspaceRef) (idx int) {
	idx = len(t.refs)
	t.refs = append(t.refs, ref)
	t.byRecord[ref.RecordID] = idx
	if t.err != nil {
		return idx
	}
	defer t.catchArenaFull()
	t.coef, t.neg = grow(t.coef, t.dr+1), grow(t.neg, 1)
	c, _ := t.halfspace(idx)
	var neg uint32
	for i := 0; i < t.dr; i++ {
		c[i] = ref.H.A[i]
		if !(c[i] >= 0) {
			neg |= 1 << uint(i)
		}
	}
	c[t.dr], t.neg[idx] = ref.H.B, neg
	switch classify(c, neg, t.box(0)) {
	case geom.BoxInside:
		t.push(&t.nodes[0].full, idx)
	case geom.BoxPartial:
		t.insertAt(0, idx, c, neg, 0)
	}
	return idx
}

// catchArenaFull, deferred, turns an arena overflow into t.err.
func (t *Tree) catchArenaFull() {
	if r := recover(); r == errArenaFull {
		t.err = errArenaFull
	} else if r != nil {
		panic(r)
	}
}

// halfspace returns what classification reads of half-space h.
func (t *Tree) halfspace(h int) ([]float64, uint32) {
	return t.coef[h*(t.dr+1) : (h+1)*(t.dr+1)], t.neg[h]
}

// box returns node ni's box, Lo then Hi.
func (t *Tree) box(ni int) []float64 { return t.boxes[ni*2*t.dr : (ni+1)*2*t.dr] }

// classify is geom.Halfspace.Classify against a box laid out Lo then Hi —
// the same products summed in the same order — for a half-space given by
// its coefficient row c (A then B) and sign mask, selecting each axis's
// corner by the mask instead of branching on the coefficient. Each product
// is rounded on its own (float64(a*x)), as childRelations' are, so that no
// architecture fuses a multiply-add into one and not the other.
func classify(c []float64, neg uint32, box []float64) geom.BoxRelation {
	dr := len(c) - 1
	box = box[:2*dr]
	var minV, maxV float64
	for i, a := range c[:dr] {
		hi := int(neg>>uint(i)&1) * dr
		minV += float64(a * box[i+hi])
		maxV += float64(a * box[i+dr-hi])
	}
	return relation(minV, maxV, c[dr])
}

// relation places a box whose least and greatest value of A·x are minV
// and maxV against the half-space A·x >= b.
func relation(minV, maxV, b float64) geom.BoxRelation {
	switch {
	case minV >= b:
		return geom.BoxInside
	case maxV <= b:
		return geom.BoxOutside
	default:
		return geom.BoxPartial
	}
}

// childRelations writes to rel[mask·stride] what classify answers for the
// half-space against child mask of box as split carves it: [Lo, centre] on
// axis i when bit i of mask is clear, [centre, Hi] when it is set. So each
// corner product is a·Lo, a·centre or a·Hi, computed once, and each
// child's extremes are summed from 0 in axis order, as classify sums them,
// up a prefix tree: children agreeing on bits 0..i share the sums of axes
// 0..i.
func (t *Tree) childRelations(c []float64, neg uint32, box []float64, rel []geom.BoxRelation, stride int) {
	dr, k := t.dr, 1<<uint(t.dr)
	t.sums = slices.Grow(t.sums[:0], 2*k)[:2*k]
	lo, hi := t.sums[:k], t.sums[k:]
	lo[0], hi[0] = 0, 0
	for i, a := range c[:dr] {
		l, h := box[i], box[dr+i]
		pl, pc, ph := float64(a*l), float64(a*((l+h)/2)), float64(a*h)
		// Each half's least and greatest product.
		min0, max0, min1, max1 := pl, pc, pc, ph
		if neg>>uint(i)&1 != 0 {
			min0, max0, min1, max1 = pc, pl, ph, pc
		}
		// In place, each sum of axes 0..i−1 (at q < w) fans out to q and q|w.
		w := 1 << uint(i)
		for q := w - 1; q >= 0; q-- {
			lo[q|w], hi[q|w] = lo[q]+min1, hi[q]+max1
			lo[q], hi[q] = lo[q]+min0, hi[q]+max0
		}
	}
	for mask := range k {
		rel[mask*stride] = relation(lo[mask], hi[mask], c[dr])
	}
}

// push appends v to a list, first moving a full list to the slab's tail
// with twice the capacity; the old span stays behind as garbage until the
// next Reset. s points into t.nodes, which push does not grow.
func (t *Tree) push(s *span, v int) {
	if s.n == s.cap {
		c := max(2*int(s.cap), 4)
		off := len(t.lists)
		t.lists = grow(t.lists, c)
		copy(t.lists[off:], t.list(*s))
		s.off, s.cap = int32(off), int32(c)
	}
	t.lists[s.off+s.n] = v
	s.n++
}

// insertAt threads half-space idx into node ni, which it partly overlaps:
// onto a leaf's partial list, or into the children of a node that is, or
// owes to be, split. A leaf that overflows is not carved: it owes the
// split (owed) and keeps the list it would split on.
//
// A node whose |F| exceeds the split bound defers idx to its pending list
// instead: no leaf below, each with at least that |F|, may split, so
// threading it down later (settle) yields the same lists and shape. Before
// the first scan, with no split bound, idx joins the split-on list of an
// owing node with nothing pending, which carving then divides as eager
// insertion would have; after it, a leaf's version would tell the two
// apart. Any other node idx passes through is opened first, so lists keep
// insertion order and every |F| read is exact.
func (t *Tree) insertAt(ni int32, idx int, c []float64, neg uint32, inheritedFull int) {
	n := &t.nodes[ni]
	inheritedFull += int(n.full.n)
	maySplit := t.splitBound < 0 || inheritedFull <= t.splitBound
	switch {
	case n.isLeaf():
		t.push(&n.partial, idx)
		n.version++
		if int(n.partial.n) > t.maxPartial && int(n.depth) < t.maxDepth && maySplit {
			n.owed = n.partial.n
		}
		return
	case !maySplit:
		t.push(&n.partial, idx)
		return
	case n.owed > 0 && n.owed == n.partial.n && !t.scanned && t.splitBound < 0:
		t.push(&n.partial, idx)
		n.owed++
		return
	}
	t.open(ni)
	// Carving and the recursion may move t.nodes, t.children and t.rel:
	// keep offsets.
	first, k, off := int(t.nodes[ni].child), 1<<uint(t.dr), len(t.rel)
	t.rel = slices.Grow(t.rel, k)[:off+k]
	t.childRelations(c, neg, t.box(int(ni)), t.rel[off:], 1)
	for mask := range k {
		child := t.children[first+mask]
		if child < 0 {
			continue
		}
		switch t.rel[off+mask] {
		case geom.BoxInside:
			t.push(&t.nodes[child].full, idx)
		case geom.BoxPartial:
			t.insertAt(child, idx, c, neg, inheritedFull)
		}
	}
	t.rel = t.rel[:off]
}

// open carves node ni if it owes a split and settles its pending list.
func (t *Tree) open(ni int32) {
	if t.nodes[ni].owed > 0 {
		t.carve(ni)
	}
	t.settle(ni)
}

// settle threads internal node ni's pending half-spaces one level down, in
// order: into a child's full list, a child leaf's partial list (a version
// each, as eager insertion gave it) or a child node's pending list. No leaf
// comes to owe a split: each was deferred where none could.
func (t *Tree) settle(ni int32) {
	if t.nodes[ni].partial.n == 0 {
		return // and writes nothing: a settled tree is only read
	}
	first, k, off := int(t.nodes[ni].child), 1<<uint(t.dr), len(t.rel)
	t.rel = slices.Grow(t.rel, k)[:off+k]
	for _, h := range t.list(t.nodes[ni].partial) {
		c, neg := t.halfspace(h)
		t.childRelations(c, neg, t.box(int(ni)), t.rel[off:], 1)
		for mask, child := range t.children[first : first+k] {
			if child < 0 {
				continue
			}
			switch cn := &t.nodes[child]; t.rel[off+mask] {
			case geom.BoxInside:
				t.push(&cn.full, h)
			case geom.BoxPartial:
				t.push(&cn.partial, h)
				if cn.isLeaf() {
					cn.version++
				}
			}
		}
	}
	t.nodes[ni].partial.n = 0
	t.rel = t.rel[:off]
}

// settleAll carves every node that owes a split and settles every pending
// list, parents first (a parent precedes its children in the arena, and
// carving appends them). On a settled tree it writes nothing.
func (t *Tree) settleAll() {
	defer t.catchArenaFull()
	if !t.scanned {
		t.scanned = true
	}
	for ni := 0; ni < len(t.nodes) && t.err == nil; ni++ {
		if !t.nodes[ni].isLeaf() {
			t.open(int32(ni))
		}
	}
}

// childID is the ID of the child in slot mask of a node with ID id, the
// child at the given depth: the path code id<<dr | mask while it fits in
// 62 bits (in every default configuration), then a 64-bit mix of the two.
func (t *Tree) childID(id uint64, depth int32, mask int) uint64 {
	if 1+t.dr*int(depth) <= 62 {
		return id<<uint(t.dr) | uint64(mask)
	}
	z := id*0x9e3779b97f4a7c15 + uint64(mask)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return (z ^ z>>31) >> 2
}

// carve splits node ni, which owes it, one level: 2^dr children share out
// the list it owed the split on, and the rest of its partial list becomes
// its pending list. Children entirely outside the domain simplex
// Σ q_i < 1 are not created; a child that overflows owes its own split.
func (t *Tree) carve(ni int32) {
	dr, k := t.dr, 1<<uint(t.dr)
	first := len(t.children)
	t.children = grow(t.children, k)
	for slot := first; slot < first+k; slot++ {
		t.children[slot] = -1 // until the child exists: a tree that overflows stays walkable
	}
	n := &t.nodes[ni]
	n.child = int32(first)
	depth, id, parts := n.depth+1, n.id, span{n.partial.off, n.owed, n.owed}
	n.partial = span{parts.off + parts.n, n.partial.n - parts.n, n.partial.cap - parts.n}
	n.owed = 0
	// Half-space j of the split-on list against child mask is at
	// t.rel[off+mask·np+j].
	np, off := int(parts.n), len(t.rel)
	t.rel = slices.Grow(t.rel, k*np)[:off+k*np]
	for j, h := range t.list(parts) {
		c, neg := t.halfspace(h)
		t.childRelations(c, neg, t.box(int(ni)), t.rel[off+j:], np)
	}
	for mask := 0; mask < k; mask++ {
		ci := len(t.nodes)
		t.boxes = grow(t.boxes, 2*dr)
		pb, cb := t.box(int(ni)), t.box(ci)
		var loSum float64
		for axis := 0; axis < dr; axis++ {
			lo, hi := pb[axis], pb[dr+axis]
			if center := (lo + hi) / 2; mask&(1<<uint(axis)) != 0 {
				lo = center
			} else {
				hi = center
			}
			cb[axis], cb[dr+axis] = lo, hi
			loSum += lo
		}
		if !(loSum < 1) {
			t.boxes = t.boxes[:ci*2*dr]
			continue
		}
		// Carve the child's lists at the slab's tail: full at its exact
		// size, partial with room up to the split threshold, so that a leaf
		// never relocates before it splits.
		rel := t.rel[off+mask*np : off+(mask+1)*np]
		nFull, nPart := 0, 0
		for _, r := range rel {
			switch r {
			case geom.BoxInside:
				nFull++
			case geom.BoxPartial:
				nPart++
			}
		}
		at, pcap := len(t.lists), max(nPart, t.maxPartial+1)
		t.lists = grow(t.lists, nFull+pcap)
		fullAt, partAt := at, at+nFull
		for j, h := range t.list(parts) {
			switch rel[j] {
			case geom.BoxInside:
				t.lists[fullAt] = h
				fullAt++
			case geom.BoxPartial:
				t.lists[partAt] = h
				partAt++
			}
		}
		t.nodes = grow(t.nodes, 1)
		t.nodes[ci] = node{
			id: t.childID(id, depth, mask), parent: ni, child: -1, depth: depth,
			full:    span{int32(at), int32(nFull), int32(nFull)},
			partial: span{int32(at + nFull), int32(nPart), int32(pcap)},
		}
		// The child may inherit more crossings than the threshold allows;
		// it owes a split then (bounded by the depth cap), as eager
		// insertion split it whatever the split bound.
		if nPart > t.maxPartial && int(depth) < t.maxDepth {
			t.nodes[ci].owed = int32(nPart)
		}
		t.children[first+mask] = int32(ci)
	}
	t.rel = t.rel[:off]
}

// list returns a span's elements, capped so that an append cannot reach
// the neighbouring span.
func (t *Tree) list(s span) []int { return t.lists[s.off : s.off+s.n : s.off+s.n] }

// Leaf is a lightweight handle to one quad-tree leaf: the tree, the node's
// index and |F_l|. Assembling the full containment set costs an ancestor
// walk, so it is done lazily: the MaxRank algorithms prune most leaves
// using only FullCount.
type Leaf struct {
	t         *Tree
	n         int32
	fullCount int32
}

// Box returns the leaf extent (shared storage; treat as read-only).
func (l Leaf) Box() geom.Rect {
	dr, b := l.t.dr, l.t.box(int(l.n))
	return geom.Rect{Lo: b[:dr:dr], Hi: b[dr : 2*dr : 2*dr]}
}

// FullCount returns |F_l| without materialising the set.
func (l Leaf) FullCount() int { return int(l.fullCount) }

// Full assembles F_l — the indices of half-spaces fully containing the
// leaf — from the leaf and its ancestors, in a fresh slice.
func (l Leaf) Full() []int {
	out := make([]int, 0, l.fullCount)
	for ni := l.n; ni >= 0; ni = l.t.nodes[ni].parent {
		out = append(out, l.t.list(l.t.nodes[ni].full)...)
	}
	return out
}

// Partial returns P_l, the half-spaces partly overlapping the leaf (shared
// storage; treat as read-only).
func (l Leaf) Partial() []int { return l.t.list(l.t.nodes[l.n].partial) }

// NodeID identifies the underlying quad-tree node by its path from the
// root: the root is 1 and the child in slot s of node p is p<<dr | s, so
// the ID does not depend on when or by what the node was carved. Past 62
// bits of path the ID is a 64-bit mix of p and s, which two nodes may
// share. Together with Version it seeds within-leaf sampling.
func (l Leaf) NodeID() int { return int(l.t.nodes[l.n].id) }

// Index returns the leaf's position in the tree's arena: unique among the
// tree's nodes and stable until the next Reset, a key for per-query caches.
func (l Leaf) Index() int { return int(l.n) }

// Version increments whenever the leaf's partial set changes; cached
// within-leaf results for older versions are stale.
func (l Leaf) Version() int { return int(l.t.nodes[l.n].version) }

// Leaves carries out every split still owed, settles the tree and returns
// handles to all live leaves with their |F_l| counts, in deterministic
// depth-first order.
func (t *Tree) Leaves() []Leaf {
	t.settleAll()
	return t.appendSubtree(nil, 0, 0)
}

// NumLeaves returns the number of live leaves: every node but those
// carved, each of which holds 2^dr child slots. A node that owes a split
// counts as one leaf.
func (t *Tree) NumLeaves() int { return len(t.nodes) - len(t.children)>>uint(t.dr) }

// appendSubtree appends the leaves under node ni, whose ancestors fully
// contain inherited half-spaces, in depth-first order.
func (t *Tree) appendSubtree(dst []Leaf, ni, inherited int32) []Leaf {
	n := &t.nodes[ni]
	count := inherited + n.full.n
	if n.child < 0 {
		return append(dst, Leaf{t: t, n: ni, fullCount: count})
	}
	for _, c := range t.children[n.child : int(n.child)+1<<uint(t.dr)] {
		if c >= 0 {
			dst = t.appendSubtree(dst, c, count)
		}
	}
	return dst
}

// Frontier hands out a tree's leaves in the order of Leaves stably sorted
// by FullCount, from a min-heap of node handles keyed by (|F|, depth-first
// position), a key no leaf below a node undercuts. Opening a node carves
// it if it owes a split, settles it and pushes its children, so a scan
// stopped at a limit leaves the rest of the tree deferred. The zero
// Frontier is ready for Reset.
type Frontier struct {
	t    *Tree
	heap []Leaf
}

// Reset starts a scan of t, keeping the heap; inserting into t ends it.
func (f *Frontier) Reset(t *Tree) {
	f.t, f.heap, t.scanned = t, f.heap[:0], true
	f.push(Leaf{t, 0, t.nodes[0].full.n})
}

// Next hands out the next leaf; it returns false when none is left or,
// for a non-negative limit, when every leaf left has |F_l| > limit. An
// arena overflow while opening a node (see Tree.Err) ends the scan.
func (f *Frontier) Next(limit int) (Leaf, bool) {
	t := f.t
	defer t.catchArenaFull()
	for len(f.heap) > 0 && t.err == nil && (limit < 0 || int(f.heap[0].fullCount) <= limit) {
		e := f.pop()
		if t.nodes[e.n].isLeaf() {
			return e, true
		}
		t.open(e.n)
		first := t.nodes[e.n].child
		for _, c := range t.children[first : int(first)+1<<uint(t.dr)] {
			if c >= 0 {
				f.push(Leaf{t, c, e.fullCount + t.nodes[c].full.n})
			}
		}
	}
	return Leaf{}, false
}

// less orders the heap by count, then depth-first: siblings are carved in
// slot order, so it compares the indexes of the two ancestors that are
// children of the lowest common one, at any depth.
func (f *Frontier) less(i, j int) bool {
	nodes, a, b := f.t.nodes, f.heap[i].n, f.heap[j].n
	if ca, cb := f.heap[i].fullCount, f.heap[j].fullCount; ca != cb {
		return ca < cb
	}
	for nodes[a].depth > nodes[b].depth {
		a = nodes[a].parent
	}
	for nodes[b].depth > nodes[a].depth {
		b = nodes[b].parent
	}
	for nodes[a].parent != nodes[b].parent {
		a, b = nodes[a].parent, nodes[b].parent
	}
	return a < b
}

func (f *Frontier) push(e Leaf) {
	f.heap = append(f.heap, e)
	for i := len(f.heap) - 1; i > 0 && f.less(i, (i-1)/2); i = (i - 1) / 2 {
		f.heap[i], f.heap[(i-1)/2] = f.heap[(i-1)/2], f.heap[i]
	}
}

func (f *Frontier) pop() Leaf {
	h, last := f.heap, len(f.heap)-1
	top := h[0]
	h[0], f.heap = h[last], h[:last]
	for i, c := 0, 1; c < last; i, c = c, 2*c+1 {
		if c+1 < last && f.less(c+1, c) {
			c++
		}
		if !f.less(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
	}
	return top
}

// Stats summarises the tree shape (used by experiments and tests).
type Stats struct {
	Leaves     int
	MaxDepth   int
	MaxPartial int
	TotalFull  int
}

// Stats carries out every split still owed, settles the tree and computes
// shape statistics.
func (t *Tree) Stats() Stats {
	t.settleAll()
	var s Stats
	for i := range t.nodes {
		n := &t.nodes[i]
		s.MaxDepth = max(s.MaxDepth, int(n.depth))
		s.TotalFull += int(n.full.n)
		if n.child < 0 {
			s.Leaves++
			s.MaxPartial = max(s.MaxPartial, int(n.partial.n))
		}
	}
	return s
}
