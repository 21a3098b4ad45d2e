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
package quadtree

import (
	"errors"
	"fmt"
	"math"

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
	// partial half-spaces (default 12).
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
	coef       []float64
	neg        []uint32
	rel        []geom.BoxRelation // split's scratch: a partial list against one child
	nextNodeID int
	// splitBound, when >= 0, stops leaves whose inherited full-containment
	// count already exceeds it from splitting: such leaves are pruned by
	// the |Fl| bound anyway, so refining them is wasted work. AA updates it
	// as its interim result improves.
	splitBound int
	err        error
}

// span locates one list in Tree.lists.
type span struct{ off, n, cap int32 }

type node struct {
	id     int32
	parent int32 // -1 at the root
	child  int32 // offset of the node's slots in Tree.children; -1 for a leaf
	depth  int32
	// version increments whenever the leaf's partial set or structure
	// changes; callers use (id, version) to cache within-leaf results.
	version int32
	full    span // half-spaces fully containing this node but not its parent
	partial span // leaves only
}

// arenaLimit bounds the length of every slab and the node IDs, which are
// all held as int32. It is a variable only so that a test can reach it.
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
	t.nextNodeID = 1
	t.splitBound = -1
	t.nodes = append(t.nodes, node{parent: -1, child: -1})
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
	t.err = nil
}

// Poison overwrites the arena, through its capacity, with values no tree
// holds (NaN boxes and coefficients, -1 indexes). Tests call it on a
// released tree to show that nothing handed out earlier aliases the arena
// and that Reset rebuilds everything it reads.
func (t *Tree) Poison() {
	fill(t.nodes, node{-1, -1, -1, -1, -1, span{-1, -1, -1}, span{-1, -1, -1}})
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
	defer func() {
		if r := recover(); r == errArenaFull {
			t.err = errArenaFull
		} else if r != nil {
			panic(r)
		}
	}()
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
	t.insertAt(0, idx, c, neg, 0)
	return idx
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
// corner by the mask instead of branching on the coefficient.
func classify(c []float64, neg uint32, box []float64) geom.BoxRelation {
	dr := len(c) - 1
	box = box[:2*dr]
	var minV, maxV float64
	for i, a := range c[:dr] {
		hi := int(neg>>uint(i)&1) * dr
		minV += a * box[i+hi]
		maxV += a * box[i+dr-hi]
	}
	switch b := c[dr]; {
	case minV >= b:
		return geom.BoxInside
	case maxV <= b:
		return geom.BoxOutside
	default:
		return geom.BoxPartial
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

func (t *Tree) insertAt(ni int32, idx int, c []float64, neg uint32, inheritedFull int) {
	switch classify(c, neg, t.box(int(ni))) {
	case geom.BoxOutside:
		return
	case geom.BoxInside:
		t.push(&t.nodes[ni].full, idx)
		return
	}
	n := &t.nodes[ni]
	if n.child < 0 {
		t.push(&n.partial, idx)
		n.version++
		if int(n.partial.n) > t.maxPartial && int(n.depth) < t.maxDepth &&
			(t.splitBound < 0 || inheritedFull+int(n.full.n) <= t.splitBound) {
			t.split(ni)
		}
		return
	}
	inheritedFull += int(n.full.n)
	// The recursion may move t.nodes and t.children; only offsets survive it.
	first := int(n.child)
	for slot := first; slot < first+1<<uint(t.dr); slot++ {
		if child := t.children[slot]; child >= 0 {
			t.insertAt(child, idx, c, neg, inheritedFull)
		}
	}
}

// split subdivides a leaf into 2^dr children and redistributes its partial
// set. Children entirely outside the domain simplex Σ q_i < 1 are not
// created, but each still consumes a node ID.
func (t *Tree) split(ni int32) {
	dr, k := t.dr, 1<<uint(t.dr)
	if t.nextNodeID+k > arenaLimit {
		panic(errArenaFull)
	}
	first := len(t.children)
	t.children = grow(t.children, k)
	for slot := first; slot < first+k; slot++ {
		t.children[slot] = -1 // until the child exists: a tree that overflows stays walkable
	}
	n := &t.nodes[ni]
	n.child = int32(first)
	n.version++
	depth, parts := n.depth+1, n.partial
	n.partial = span{}
	for mask := 0; mask < k; mask++ {
		id := t.nextNodeID
		t.nextNodeID++
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
		// Classify the parent's partial list once, then carve the child's
		// lists at the slab's tail: full at its exact size, partial with
		// room up to the split threshold, so that a leaf never relocates
		// before it splits.
		t.rel = t.rel[:0]
		nFull, nPart := 0, 0
		for _, h := range t.list(parts) {
			c, neg := t.halfspace(h)
			r := classify(c, neg, cb)
			switch r {
			case geom.BoxInside:
				nFull++
			case geom.BoxPartial:
				nPart++
			}
			t.rel = append(t.rel, r)
		}
		off, pcap := len(t.lists), max(nPart, t.maxPartial+1)
		t.lists = grow(t.lists, nFull+pcap)
		fullAt, partAt := off, off+nFull
		for j, h := range t.list(parts) {
			switch t.rel[j] {
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
			id: int32(id), parent: ni, child: -1, depth: depth,
			full:    span{int32(off), int32(nFull), int32(nFull)},
			partial: span{int32(off + nFull), int32(nPart), int32(pcap)},
		}
		t.children[first+mask] = int32(ci)
		// The child may inherit more crossings than the threshold allows;
		// keep splitting (bounded by the depth cap).
		if nPart > t.maxPartial && int(depth) < t.maxDepth {
			t.split(int32(ci))
		}
	}
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

// NodeID identifies the underlying quad-tree node; together with Version it
// forms a cache key for within-leaf results.
func (l Leaf) NodeID() int { return int(l.t.nodes[l.n].id) }

// Version increments whenever the leaf's partial set changes or the node is
// split; cached within-leaf results for older versions are stale.
func (l Leaf) Version() int { return int(l.t.nodes[l.n].version) }

// Leaves returns handles to all live leaves with their |F_l| counts.
func (t *Tree) Leaves() []Leaf { return t.AppendLeaves(nil) }

// AppendLeaves appends handles to all live leaves (with their |F_l|
// counts) to dst, in deterministic depth-first order, and returns the
// extended slice. Passing a recycled buffer keeps repeated leaf scans —
// one per AA iteration — allocation-free.
func (t *Tree) AppendLeaves(dst []Leaf) []Leaf {
	return t.appendSubtree(dst, 0, 0)
}

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

// Stats summarises the tree shape (used by experiments and tests).
type Stats struct {
	Leaves     int
	MaxDepth   int
	MaxPartial int
	TotalFull  int
}

// Stats computes shape statistics.
func (t *Tree) Stats() Stats {
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
