package rstar

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"repro/internal/geom"
	"repro/internal/pager"
	"repro/internal/vecmath"
)

// reinsertFraction is the R*-tree forced-reinsert share (30 % per the
// original paper).
const reinsertFraction = 0.3

// minFillFraction is the minimum node utilisation (40 %).
const minFillFraction = 0.4

// Tree is an aggregate R*-tree over points, backed by a pager.Source.
//
// Every query-time node access charges one page read to the query's
// pager.Tracker, so I/O statistics match the paper's counting in both of
// its deployment scenarios. Which scenario a tree is in follows from its
// storage, not from an option:
//
//   - A tree over a heap *pager.Store (New, BulkLoad, RestoreFrom on a
//     Store, Fork) keeps every node in its node cache and serves reads
//     from it: data and index in main memory. It is writable. A fork
//     shares its parent's nodes and clones one, three slab copies, only
//     to change it.
//   - A tree over any other Source — a pager.Mapped view over an mmap'd
//     snapshot — caches nothing and decodes each page it reads: the
//     disk-resident scenario. It is read-only. Mutating it fails with a
//     typed error; the mutation path (Dataset.Apply) promotes the page
//     image into a heap store first, so copy-on-write never writes through
//     a mapping.
type Tree struct {
	src   pager.Source
	store *pager.Store // non-nil only for writable (heap-backed) trees
	dim   int

	maxLeaf, minLeaf     int
	maxBranch, minBranch int

	root   pager.PageID
	height int // number of levels; 1 = root is a leaf
	size   int64

	cache map[pager.PageID]*Node // every node of a heap tree; nil on a read-only tree
	// dirty holds the cached nodes this tree owns: those it created or
	// cloned since its last Finalize. Any other cached node may be shared
	// with the tree it was forked from and that tree's other forks, so it
	// is never modified in place.
	dirty map[pager.PageID]struct{}
	// enlarged is chooseSubtree's scratch rectangle.
	enlarged geom.Rect
}

// Options configures tree construction. Node size is the source's page
// size.
type Options struct {
	// DirectMemory is ignored: a tree over a heap store always serves reads
	// from its node cache, and a tree over any other source always decodes.
	//
	// Deprecated: the storage decides how the index is read. The field
	// remains only so existing callers compile.
	DirectMemory bool
}

// New creates an empty aggregate R*-tree of the given dimensionality.
func New(store *pager.Store, dim int, opts Options) (*Tree, error) {
	t, err := emptyTree(store, dim)
	if err != nil {
		return nil, err
	}
	root := t.newNode(0)
	t.root = root.ID
	t.height = 1
	return t, nil
}

// emptyTree sizes an empty tree over src: fanouts from the page size and the
// dimensionality, and a node cache when src is a heap store.
func emptyTree(src pager.Source, dim int) (*Tree, error) {
	if dim < 1 {
		return nil, fmt.Errorf("rstar: dimension %d < 1", dim)
	}
	ps := src.PageSize()
	maxLeaf := MaxLeafEntries(ps, dim)
	maxBranch := MaxBranchEntries(ps, dim)
	if maxLeaf < 4 || maxBranch < 4 {
		return nil, fmt.Errorf("rstar: page size %d too small for dim %d (fanout %d/%d)",
			ps, dim, maxLeaf, maxBranch)
	}
	t := &Tree{
		src:       src,
		dim:       dim,
		maxLeaf:   maxLeaf,
		minLeaf:   max(2, int(minFillFraction*float64(maxLeaf))),
		maxBranch: maxBranch,
		minBranch: max(2, int(minFillFraction*float64(maxBranch))),
	}
	if store, ok := src.(*pager.Store); ok {
		t.store = store
		t.cache = make(map[pager.PageID]*Node)
		t.dirty = make(map[pager.PageID]struct{})
		t.enlarged = newRect(dim)
	}
	return t, nil
}

// Fork returns a writable tree over store, which must be a Clone of this
// tree's store, holding the same index. The fork shares this tree's
// nodes and clones a node only the first time it changes it, and
// its store shares the unchanged pages, so a fork costs two tables, not a
// decode of every page, and nothing it does reaches this tree, which may
// keep serving queries meanwhile. This tree must be heap-backed and
// finalized.
func (t *Tree) Fork(store *pager.Store) (*Tree, error) {
	if err := t.writable(); err != nil {
		return nil, err
	}
	if len(t.dirty) > 0 {
		return nil, fmt.Errorf("rstar: fork of a tree with %d unfinalized nodes", len(t.dirty))
	}
	if store.PageSize() != t.store.PageSize() {
		return nil, fmt.Errorf("rstar: fork onto page size %d, tree has %d", store.PageSize(), t.store.PageSize())
	}
	f, err := emptyTree(store, t.dim)
	if err != nil {
		return nil, err
	}
	f.root, f.height, f.size = t.root, t.height, t.size
	f.cache = maps.Clone(t.cache)
	return f, nil
}

// Dim returns the dimensionality of indexed points.
func (t *Tree) Dim() int { return t.dim }

// Size returns the number of indexed records.
func (t *Tree) Size() int64 { return t.size }

// Height returns the number of levels (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// Root returns the root page ID.
func (t *Tree) Root() pager.PageID { return t.root }

// Source exposes the backing page source.
func (t *Tree) Source() pager.Source { return t.src }

// writable guards the mutation entry points: read-only trees (RestoreFrom
// over a mapped snapshot) have no heap store to write to. Mutation of a
// mapped dataset goes through copy-on-write promotion instead
// (repro.Dataset.Apply), which restores the page image into a heap store.
func (t *Tree) writable() error {
	if t.store == nil {
		return fmt.Errorf("rstar: tree is read-only (serving a mapped snapshot); mutations require a heap-backed copy")
	}
	return nil
}

func (t *Tree) newNode(level int) *Node {
	n := &Node{ID: t.store.Alloc(), Level: level, dim: t.dim}
	t.cache[n.ID] = n
	t.dirty[n.ID] = struct{}{}
	return n
}

// node returns a cached node for the mutation path to change. A node the
// tree does not own yet is cloned first, into slabs of its own with room
// for the entry an insert adds; append grows them for the rare second.
func (t *Tree) node(id pager.PageID) *Node {
	n := t.peek(id)
	if _, own := t.dirty[id]; own {
		return n
	}
	c := n.clone(1)
	t.cache[id] = c
	t.dirty[id] = struct{}{}
	return c
}

// peek returns a cached node for the mutation path to read only.
func (t *Tree) peek(id pager.PageID) *Node {
	n, ok := t.cache[id]
	if !ok {
		panic(fmt.Sprintf("rstar: node %d not in the node cache", id))
	}
	return n
}

// release drops a dissolved node and frees its page.
func (t *Tree) release(id pager.PageID) {
	delete(t.cache, id)
	delete(t.dirty, id)
	t.store.Free(id)
}

// readNode charges one page read and serves the node from the cache when
// it is there; otherwise it decodes the page into buf (a new node when nil).
func (t *Tree) readNode(id pager.PageID, tr *pager.Tracker, buf *Node) (*Node, error) {
	data, err := t.src.ReadTracked(id, tr)
	if err != nil {
		return nil, err
	}
	if n, ok := t.cache[id]; ok {
		return n, nil
	}
	if buf == nil {
		buf = new(Node)
	}
	if err := buf.decode(id, data); err != nil {
		return nil, err
	}
	return buf, nil
}

// Insert adds a point with the given record ID.
func (t *Tree) Insert(p vecmath.Point, recordID int64) error {
	if err := t.writable(); err != nil {
		return err
	}
	if len(p) != t.dim {
		return fmt.Errorf("rstar: inserting %d-dim point into %d-dim tree", len(p), t.dim)
	}
	t.insertEntry(geom.Rect{Lo: p, Hi: p}, recordID, 1, 0, make(map[int]bool))
	t.size++
	return nil
}

// insertEntry places an entry with bounds r, ID id and count at the target
// level, handling overflow by forced reinsert (once per level per top-level
// insertion) or R*-split. The node copies r. The path is on this call's
// stack: reinsert and condense re-enter insertEntry while theirs is live.
func (t *Tree) insertEntry(r geom.Rect, id, count int64, level int, reinserted map[int]bool) {
	var buf [pathCap]pager.PageID
	path := t.choosePath(r, level, buf[:0])
	n := t.node(path[len(path)-1])
	n.push(r, id, count)
	t.extendUp(path, r, count)
	if n.Len() > t.maxEntriesFor(n) {
		t.overflow(path, reinserted)
	}
}

const pathCap = 16 // the tree height a path holds before append allocates

func (t *Tree) maxEntriesFor(n *Node) int {
	if n.Leaf() {
		return t.maxLeaf
	}
	return t.maxBranch
}

func (t *Tree) minEntriesFor(n *Node) int {
	if n.Leaf() {
		return t.minLeaf
	}
	return t.minBranch
}

// choosePath descends from the root to the node at targetLevel following the
// R*-tree ChooseSubtree criteria, appending the page IDs along the way to path.
func (t *Tree) choosePath(r geom.Rect, targetLevel int, path []pager.PageID) []pager.PageID {
	path = append(path, t.root)
	cur := t.peek(t.root)
	for cur.Level > targetLevel {
		idx := t.chooseSubtree(cur, r)
		child := t.peek(cur.Child(idx))
		path = append(path, child.ID)
		cur = child
	}
	return path
}

// chooseSubtree picks the child entry to follow for rectangle r: when
// children are leaves, the least overlap enlargement, then the least area
// enlargement, then the least area; otherwise the least area enlargement,
// then the least area. Near-ties within 1e-15 fall through to the next
// criterion.
//
// The overlap enlargement of entry E is the sum over the other entries O
// of A(E′∩O) − A(E∩O), E′ being E grown to cover r. E′ contains E bound
// for bound and float subtraction and multiplication are monotone, so
// A(E′∩O) ≥ A(E∩O) and every term is ≥ +0 — or NaN, when both overflow to
// +Inf, which needs A(E) non-finite, and then neither enlargement nor area
// can prefer E (coordinates are never NaN). So the sum can stop early and
// still choose exactly what summing every term chooses: an E′ equal to E
// with A(E) finite adds exactly +0, and once a partial sum passes
// bestOverlap+1e-15, or reaches bestOverlap−1e-15 when enlargement and
// area cannot prefer E, E has lost, as its full sum — no smaller, or NaN —
// would lose. Likewise no sum is taken when enlargement and area cannot
// prefer E and bestOverlap ≤ 1e-15, and a sibling E′ does not reach with
// positive extent on every axis is skipped: its +0 − +0 leaves a sum of
// terms ≥ +0 as it was, bit for bit. The rest are added in index order.
// At a leaf's parent the loop may start at skipLosers' entry.
func (t *Tree) chooseSubtree(n *Node, r geom.Rect) int {
	childrenAreLeaves := n.Level == 1
	best := -1
	bestOverlap := math.Inf(1)
	bestEnlarge := math.Inf(1)
	bestArea := math.Inf(1)
	enlarged := t.enlarged
	for i := t.skipLosers(n, r); i < n.Len(); i++ {
		e := n.rect(i)
		grown := t.grow(e, r)
		enlargedArea := enlarged.Area()
		area := e.Area()
		enlarge := enlargedArea - area
		// laterWins: E beats the best so far on enlargement or area alone.
		laterWins := enlarge < bestEnlarge-1e-15 || (!(enlarge > bestEnlarge+1e-15) && area < bestArea)
		var overlapDelta float64
		if childrenAreLeaves && (grown || !(enlargedArea <= math.MaxFloat64)) && (laterWins || !(bestOverlap <= 1e-15)) {
		siblings:
			for j := 0; j < n.Len(); j++ {
				o := n.rect(j)
				for k := range o.Lo {
					if j == i || min(enlarged.Hi[k], o.Hi[k]) <= max(enlarged.Lo[k], o.Lo[k]) {
						continue siblings
					}
				}
				overlapDelta += enlarged.IntersectionArea(o) - e.IntersectionArea(o)
				if best >= 0 && (overlapDelta > bestOverlap+1e-15 || (!laterWins && !(overlapDelta < bestOverlap-1e-15))) {
					break
				}
			}
		}
		var better bool
		switch {
		case childrenAreLeaves && overlapDelta < bestOverlap-1e-15:
			better = true
		case childrenAreLeaves && overlapDelta > bestOverlap+1e-15:
			better = false
		default:
			better = laterWins
		}
		if best < 0 || better {
			best = i
			bestOverlap = overlapDelta
			bestEnlarge = enlarge
			bestArea = area
		}
	}
	return best
}

// skipLosers returns the first entry C of a leaf's parent that covers r
// with a finite area if each entry E before it has A(E) finite and a term
// against C above 1e-15, else 0. E's sum has no NaN term and so is above
// 1e-15 too; C's is +0, so C beats whichever was best before it, and the
// loop may start at C. r is nearly always covered: O(fanout) a choice.
func (t *Tree) skipLosers(n *Node, r geom.Rect) int {
	for c := 0; n.Level == 1 && c < n.Len(); c++ {
		if cr := n.rect(c); cr.ContainsRect(r) && cr.Area() <= math.MaxFloat64 {
			for i := 0; i < c; i++ {
				e := n.rect(i)
				t.grow(e, r)
				if !(e.Area() <= math.MaxFloat64 && t.enlarged.IntersectionArea(cr)-e.IntersectionArea(cr) > 1e-15) {
					return 0
				}
			}
			return c
		}
	}
	return 0
}

// grow sets t.enlarged to e grown to cover r and reports whether it grew.
func (t *Tree) grow(e, r geom.Rect) bool {
	grown := false
	for k := range t.enlarged.Lo {
		t.enlarged.Lo[k] = math.Min(e.Lo[k], r.Lo[k])
		t.enlarged.Hi[k] = math.Max(e.Hi[k], r.Hi[k])
		grown = grown || t.enlarged.Lo[k] != e.Lo[k] || t.enlarged.Hi[k] != e.Hi[k]
	}
	return grown
}

// adjustUp refreshes MBRs and counts along a root-to-node path by re-scanning.
func (t *Tree) adjustUp(path []pager.PageID) {
	for i := len(path) - 2; i >= 0; i-- {
		parent := t.node(path[i])
		child := t.peek(path[i+1])
		if j := parent.childIndex(child.ID); j >= 0 {
			parent.setChild(j, child)
		}
	}
}

// extendUp is adjustUp, bit for bit, after the path's last node gained an
// entry r of count records, in O(d) a level: it extends each entry by r
// and adds count. A re-scan folds a child's entries with Extend, keeping
// the first of equal bounds; at the leaf's parent r is the fold's last
// entry, and above it equal bounds are the same bits but for ±0, so only a
// zero in r could show the fold's order, and then it re-scans.
func (t *Tree) extendUp(path []pager.PageID, r geom.Rect, count int64) {
	if slices.Contains(r.Lo, 0) || slices.Contains(r.Hi, 0) {
		t.adjustUp(path)
		return
	}
	for i := len(path) - 2; i >= 0; i-- {
		parent := t.node(path[i])
		j := parent.childIndex(path[i+1])
		b := parent.rect(j)
		b.Extend(r)
		parent.counts[j] += count
	}
}

// overflow handles an overfull node at the end of path: forced reinsert the
// first time a level overflows during one top-level insertion, split after.
func (t *Tree) overflow(path []pager.PageID, reinserted map[int]bool) {
	nodeID := path[len(path)-1]
	n := t.peek(nodeID)
	isRoot := nodeID == t.root
	if !isRoot && !reinserted[n.Level] {
		reinserted[n.Level] = true
		t.reinsert(path, reinserted)
		return
	}
	t.splitUp(path, reinserted)
}

// reinsert removes the reinsertFraction entries farthest from the node's
// center and re-inserts them from the root (R*-tree forced reinsert). The
// entries are ordered by sorting a permutation, which from the node's
// order makes the comparisons and swaps sorting the entries would.
func (t *Tree) reinsert(path []pager.PageID, reinserted map[int]bool) {
	n := t.node(path[len(path)-1])
	box := newRect(t.dim)
	n.mbrInto(box, 0, n.Len())
	center := box.Center()
	old := n.clone(0)
	perm, dist := make([]int, old.Len()), make([]float64, old.Len())
	for i := range perm {
		perm[i] = i
		lo, hi := old.Lo(i), old.Hi(i)
		var d float64
		for j := range center {
			dd := (lo[j]+hi[j])/2 - center[j]
			d += dd * dd
		}
		dist[i] = d
	}
	sort.Slice(perm, func(i, j int) bool { return dist[perm[i]] < dist[perm[j]] })
	p := max(1, int(reinsertFraction*float64(len(perm))))
	n.empty()
	for _, i := range perm[:len(perm)-p] {
		n.pushFrom(old, i)
	}
	t.adjustUp(path)
	for _, i := range perm[len(perm)-p:] {
		t.insertEntry(old.rect(i), old.ids[i], old.Count(i), n.Level, reinserted)
	}
}

// splitUp splits the node at the end of path, propagating splits upward and
// growing the tree if the root splits.
func (t *Tree) splitUp(path []pager.PageID, reinserted map[int]bool) {
	for i := len(path) - 1; i >= 0; i-- {
		n := t.node(path[i])
		if n.Len() <= t.maxEntriesFor(n) {
			t.adjustUp(path[:i+1])
			return
		}
		sibling := t.split(n)
		if path[i] == t.root {
			newRoot := t.newNode(n.Level + 1)
			newRoot.pushChild(n)
			newRoot.pushChild(sibling)
			t.root = newRoot.ID
			t.height++
			return
		}
		parent := t.node(path[i-1])
		if j := parent.childIndex(n.ID); j >= 0 {
			parent.setChild(j, n)
		}
		parent.pushChild(sibling)
		// Continue loop: parent may now overflow.
	}
}

// split performs the R* topological split: choose the axis with minimum
// margin sum, then the distribution with minimum overlap (ties: area). Each
// axis sort orders a permutation from the node's order, as reinsert does,
// and copies the entries in that order.
func (t *Tree) split(n *Node) *Node {
	minE := t.minEntriesFor(n)
	perm := make([]int, n.Len())
	sorted := &Node{Level: n.Level, dim: n.dim}
	sorted.reserve(n.Len())
	sortAxis := func(axis int, lower bool) {
		for i := range perm {
			perm[i] = i
		}
		sort.Slice(perm, func(i, j int) bool {
			if lower {
				return n.Lo(perm[i])[axis] < n.Lo(perm[j])[axis]
			}
			return n.Hi(perm[i])[axis] < n.Hi(perm[j])[axis]
		})
		sorted.empty()
		for _, i := range perm {
			sorted.pushFrom(n, i)
		}
	}
	left, right := newRect(t.dim), newRect(t.dim)
	bestAxis, bestLower, bestSplit, bestMargin := -1, false, -1, math.Inf(1)
	for axis := 0; axis < t.dim; axis++ {
		for _, lower := range []bool{true, false} {
			sortAxis(axis, lower)
			// The sort's split: min overlap, tie area.
			var marginSum float64
			split, bestOverlap, bestArea := -1, math.Inf(1), math.Inf(1)
			for k := minE; k <= sorted.Len()-minE; k++ {
				sorted.mbrInto(left, 0, k)
				sorted.mbrInto(right, k, sorted.Len())
				marginSum += left.Margin() + right.Margin()
				overlap, area := left.IntersectionArea(right), left.Area()+right.Area()
				if overlap < bestOverlap-1e-15 || (math.Abs(overlap-bestOverlap) <= 1e-15 && area < bestArea) {
					split, bestOverlap, bestArea = k, overlap, area
				}
			}
			if marginSum < bestMargin {
				bestAxis, bestLower, bestSplit, bestMargin = axis, lower, split, marginSum
			}
		}
	}
	sortAxis(bestAxis, bestLower)
	n.empty()
	sibling := t.newNode(n.Level)
	for i := 0; i < sorted.Len(); i++ {
		if i < bestSplit {
			n.pushFrom(sorted, i)
		} else {
			sibling.pushFrom(sorted, i)
		}
	}
	return sibling
}

// newRect returns a d-dimensional rectangle to write bounds into.
func newRect(d int) geom.Rect {
	return geom.Rect{Lo: make(vecmath.Point, d), Hi: make(vecmath.Point, d)}
}

// Delete removes one record with the given point and record ID. It returns
// false when no such record exists. Underfull nodes are condensed by
// re-inserting their entries, as in the classic R-tree algorithm.
func (t *Tree) Delete(p vecmath.Point, recordID int64) (bool, error) {
	if err := t.writable(); err != nil {
		return false, err
	}
	if len(p) != t.dim {
		return false, fmt.Errorf("rstar: deleting %d-dim point from %d-dim tree", len(p), t.dim)
	}
	var buf [pathCap]pager.PageID
	path, idx := t.findLeaf(t.root, p, recordID, buf[:0])
	if path == nil {
		return false, nil
	}
	t.node(path[len(path)-1]).remove(idx)
	t.size--
	t.condense(path)
	// Shrink the root if it became a lone-child branch.
	root := t.peek(t.root)
	for !root.Leaf() && root.Len() == 1 {
		child := root.Child(0)
		t.release(t.root)
		t.root = child
		t.height--
		root = t.peek(t.root)
	}
	return true, nil
}

// findLeaf appends the path from id to the record's leaf; nil if absent.
func (t *Tree) findLeaf(id pager.PageID, p vecmath.Point, recordID int64, path []pager.PageID) ([]pager.PageID, int) {
	n := t.peek(id)
	path = append(path, id)
	if n.Leaf() {
		for i := 0; i < n.Len(); i++ {
			if n.ids[i] == recordID && n.Lo(i).Equal(p) {
				return path, i
			}
		}
		return nil, -1
	}
	for i := 0; i < n.Len(); i++ {
		if n.rect(i).Contains(p) {
			if found, idx := t.findLeaf(n.Child(i), p, recordID, path); found != nil {
				return found, idx
			}
		}
	}
	return nil, -1
}

// condense walks the deletion path bottom-up, dissolving underfull nodes and
// re-inserting their entries at the proper level. A dissolved node leaves
// the cache, so no mutation reaches the entries read back from it.
func (t *Tree) condense(path []pager.PageID) {
	var orphans []*Node
	for i := len(path) - 1; i >= 1; i-- {
		n := t.peek(path[i])
		parent := t.node(path[i-1])
		j := parent.childIndex(n.ID)
		if n.Len() < t.minEntriesFor(n) {
			if j >= 0 {
				parent.remove(j)
			}
			orphans = append(orphans, n)
			t.release(n.ID)
		} else if j >= 0 {
			parent.setChild(j, n)
		}
	}
	for _, o := range orphans {
		for i := 0; i < o.Len(); i++ {
			t.insertEntry(o.rect(i), o.ids[i], o.Count(i), o.Level, make(map[int]bool))
		}
	}
}

// CachedBytes approximates the heap held by the node cache: every cached
// node's coordinate, ID and count slabs, without per-object overhead or
// spare capacity. A tree over a mapped source caches nothing and reports
// 0.
func (t *Tree) CachedBytes() int64 {
	var b int64
	for _, n := range t.cache {
		b += 8 * int64(len(n.coords)+len(n.ids)+len(n.counts))
	}
	return b
}

// Finalize serialises every node the tree owns — each node of a new tree,
// and what a fork changed — to its page. Its slabs already hold exactly
// what the page does, so the node is then shared as it is, like every
// other cached node. The store adopts the buffer encode made, so a node
// costs one allocation, its page. Finalize reads no page, so it charges no
// tracker and never sleeps.
func (t *Tree) Finalize() error {
	if err := t.writable(); err != nil {
		return err
	}
	for id := range t.dirty {
		if err := t.store.Adopt(id, t.cache[id].encode()); err != nil {
			return fmt.Errorf("rstar: finalize node %d: %w", id, err)
		}
	}
	clear(t.dirty)
	return nil
}
