package rstar

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"unsafe"

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
//     Store, Fork) keeps every node decoded in its node cache and serves
//     reads from it: data and index in main memory. It is writable. A fork
//     shares its parent's decoded nodes and clones one only to change it.
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
		t.enlarged = geom.Rect{Lo: make(vecmath.Point, dim), Hi: make(vecmath.Point, dim)}
	}
	return t, nil
}

// Fork returns a writable tree over store, which must be a Clone of this
// tree's store, holding the same index. The fork shares this tree's
// decoded nodes and clones a node only the first time it changes it, and
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
	n := &Node{ID: t.store.Alloc(), Level: level}
	t.cache[n.ID] = n
	t.dirty[n.ID] = struct{}{}
	return n
}

// node returns a cached node for the mutation path to change. A node the
// tree does not own yet is cloned first: the clone gets its own entry
// array and shares the original's coordinates, which no mutation writes in
// place (a changed rect is a new rect). The array holds the entries plus
// the one an insert adds; append grows it for the rare second.
func (t *Tree) node(id pager.PageID) *Node {
	n := t.peek(id)
	if _, own := t.dirty[id]; own {
		return n
	}
	c := &Node{ID: id, Level: n.Level, Entries: make([]Entry, len(n.Entries), len(n.Entries)+1)}
	copy(c.Entries, n.Entries)
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
	pp := p.Clone()
	e := Entry{Rect: geom.Rect{Lo: pp, Hi: pp}, RecordID: recordID, Count: 1}
	reinserted := make(map[int]bool)
	t.insertEntry(e, 0, reinserted)
	t.size++
	return nil
}

// insertEntry places e at the target level, handling overflow by forced
// reinsert (once per level per top-level insertion) or R*-split.
func (t *Tree) insertEntry(e Entry, level int, reinserted map[int]bool) {
	path := t.choosePath(e.Rect, level)
	leafID := path[len(path)-1]
	n := t.node(leafID)
	n.Entries = append(n.Entries, e)
	t.adjustUp(path)
	if len(n.Entries) > t.maxEntriesFor(n) {
		t.overflow(path, reinserted)
	}
}

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
// R*-tree ChooseSubtree criteria, returning the page IDs along the way.
func (t *Tree) choosePath(r geom.Rect, targetLevel int) []pager.PageID {
	path := []pager.PageID{t.root}
	cur := t.peek(t.root)
	for cur.Level > targetLevel {
		idx := t.chooseSubtree(cur, r)
		child := t.peek(cur.Entries[idx].Child)
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
// can prefer E. So the sum can stop early and still choose exactly what
// summing every term chooses: an E′ equal to E with A(E) finite adds
// exactly +0, and once a partial sum passes bestOverlap+1e-15, or reaches
// bestOverlap−1e-15 when enlargement and area cannot prefer E, E has lost,
// as its full sum — no smaller, or NaN — would lose.
func (t *Tree) chooseSubtree(n *Node, r geom.Rect) int {
	childrenAreLeaves := n.Level == 1
	best := -1
	bestOverlap := math.Inf(1)
	bestEnlarge := math.Inf(1)
	bestArea := math.Inf(1)
	enlarged := t.enlarged
	for i := range n.Entries {
		e := &n.Entries[i]
		grown := false
		for k := range enlarged.Lo {
			enlarged.Lo[k] = math.Min(e.Rect.Lo[k], r.Lo[k])
			enlarged.Hi[k] = math.Max(e.Rect.Hi[k], r.Hi[k])
			grown = grown || enlarged.Lo[k] != e.Rect.Lo[k] || enlarged.Hi[k] != e.Rect.Hi[k]
		}
		enlargedArea := enlarged.Area()
		area := e.Rect.Area()
		enlarge := enlargedArea - area
		// laterWins: E beats the best so far on enlargement or area alone.
		laterWins := enlarge < bestEnlarge-1e-15 || (!(enlarge > bestEnlarge+1e-15) && area < bestArea)
		var overlapDelta float64
		if childrenAreLeaves && (grown || !(enlargedArea <= math.MaxFloat64)) {
			for j := range n.Entries {
				if j == i {
					continue
				}
				o := &n.Entries[j]
				overlapDelta += enlarged.IntersectionArea(o.Rect) - e.Rect.IntersectionArea(o.Rect)
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

// adjustUp refreshes MBRs and aggregate counts along a root-to-node path.
func (t *Tree) adjustUp(path []pager.PageID) {
	for i := len(path) - 2; i >= 0; i-- {
		parent := t.node(path[i])
		child := t.peek(path[i+1])
		for j := range parent.Entries {
			if parent.Entries[j].Child == child.ID {
				parent.Entries[j].Rect = child.MBR()
				parent.Entries[j].Count = child.subtreeCount()
				break
			}
		}
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
// center and re-inserts them from the root (R*-tree forced reinsert).
func (t *Tree) reinsert(path []pager.PageID, reinserted map[int]bool) {
	n := t.node(path[len(path)-1])
	center := n.MBR().Center()
	type distEntry struct {
		dist float64
		e    Entry
	}
	des := make([]distEntry, len(n.Entries))
	for i, e := range n.Entries {
		c := e.Rect.Center()
		var d float64
		for j := range c {
			dd := c[j] - center[j]
			d += dd * dd
		}
		des[i] = distEntry{dist: d, e: e}
	}
	sort.Slice(des, func(i, j int) bool { return des[i].dist < des[j].dist })
	p := int(reinsertFraction * float64(len(des)))
	if p < 1 {
		p = 1
	}
	keep := des[:len(des)-p]
	evict := des[len(des)-p:]
	n.Entries = n.Entries[:0]
	for _, de := range keep {
		n.Entries = append(n.Entries, de.e)
	}
	t.adjustUp(path)
	for _, de := range evict {
		t.insertEntry(de.e, n.Level, reinserted)
	}
}

// splitUp splits the node at the end of path, propagating splits upward and
// growing the tree if the root splits.
func (t *Tree) splitUp(path []pager.PageID, reinserted map[int]bool) {
	for i := len(path) - 1; i >= 0; i-- {
		n := t.node(path[i])
		if len(n.Entries) <= t.maxEntriesFor(n) {
			t.adjustUp(path[:i+1])
			return
		}
		sibling := t.split(n)
		if path[i] == t.root {
			newRoot := t.newNode(n.Level + 1)
			newRoot.Entries = []Entry{
				{Rect: n.MBR(), Child: n.ID, Count: n.subtreeCount()},
				{Rect: sibling.MBR(), Child: sibling.ID, Count: sibling.subtreeCount()},
			}
			t.root = newRoot.ID
			t.height++
			return
		}
		parent := t.node(path[i-1])
		for j := range parent.Entries {
			if parent.Entries[j].Child == n.ID {
				parent.Entries[j].Rect = n.MBR()
				parent.Entries[j].Count = n.subtreeCount()
				break
			}
		}
		parent.Entries = append(parent.Entries, Entry{
			Rect:  sibling.MBR(),
			Child: sibling.ID,
			Count: sibling.subtreeCount(),
		})
		// Continue loop: parent may now overflow.
	}
}

// split performs the R* topological split: choose the axis with minimum
// margin sum, then the distribution with minimum overlap (ties: area).
func (t *Tree) split(n *Node) *Node {
	minE := t.minEntriesFor(n)
	entries := n.Entries
	bestAxis, bestLower := -1, false
	bestSplit := -1
	bestMargin := math.Inf(1)

	type axisChoice struct {
		axis    int
		lower   bool
		split   int
		overlap float64
		area    float64
	}
	var candidates []axisChoice

	for axis := 0; axis < t.dim; axis++ {
		for _, lower := range []bool{true, false} {
			sorted := make([]Entry, len(entries))
			copy(sorted, entries)
			ax, lw := axis, lower
			sort.Slice(sorted, func(i, j int) bool {
				if lw {
					return sorted[i].Rect.Lo[ax] < sorted[j].Rect.Lo[ax]
				}
				return sorted[i].Rect.Hi[ax] < sorted[j].Rect.Hi[ax]
			})
			var marginSum float64
			for k := minE; k <= len(sorted)-minE; k++ {
				left := mbrOf(sorted[:k])
				right := mbrOf(sorted[k:])
				marginSum += left.Margin() + right.Margin()
				candidates = append(candidates, axisChoice{
					axis: axis, lower: lower, split: k,
					overlap: left.IntersectionArea(right),
					area:    left.Area() + right.Area(),
				})
			}
			if marginSum < bestMargin {
				bestMargin = marginSum
				bestAxis = axis
				bestLower = lower
			}
		}
	}
	// Among candidates on the chosen axis/sort, pick min overlap, tie area.
	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	for _, c := range candidates {
		if c.axis != bestAxis || c.lower != bestLower {
			continue
		}
		if c.overlap < bestOverlap-1e-15 ||
			(math.Abs(c.overlap-bestOverlap) <= 1e-15 && c.area < bestArea) {
			bestOverlap = c.overlap
			bestArea = c.area
			bestSplit = c.split
		}
	}

	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	ax, lw := bestAxis, bestLower
	sort.Slice(sorted, func(i, j int) bool {
		if lw {
			return sorted[i].Rect.Lo[ax] < sorted[j].Rect.Lo[ax]
		}
		return sorted[i].Rect.Hi[ax] < sorted[j].Rect.Hi[ax]
	})
	n.Entries = append(n.Entries[:0], sorted[:bestSplit]...)
	sibling := t.newNode(n.Level)
	sibling.Entries = append(sibling.Entries, sorted[bestSplit:]...)
	return sibling
}

func mbrOf(entries []Entry) geom.Rect {
	r := entries[0].Rect.Clone()
	for _, e := range entries[1:] {
		r.Extend(e.Rect)
	}
	return r
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
	var path []pager.PageID
	leaf, idx := t.findLeaf(t.root, p, recordID, &path)
	if leaf == nil {
		return false, nil
	}
	leaf = t.node(leaf.ID)
	leaf.Entries = append(leaf.Entries[:idx], leaf.Entries[idx+1:]...)
	t.size--
	t.condense(path)
	// Shrink the root if it became a lone-child branch.
	root := t.peek(t.root)
	for !root.Leaf() && len(root.Entries) == 1 {
		child := root.Entries[0].Child
		t.release(t.root)
		t.root = child
		t.height--
		root = t.peek(t.root)
	}
	return true, nil
}

func (t *Tree) findLeaf(id pager.PageID, p vecmath.Point, recordID int64, path *[]pager.PageID) (*Node, int) {
	n := t.peek(id)
	*path = append(*path, id)
	if n.Leaf() {
		for i := range n.Entries {
			if n.Entries[i].RecordID == recordID && n.Entries[i].Rect.Lo.Equal(p) {
				return n, i
			}
		}
		*path = (*path)[:len(*path)-1]
		return nil, -1
	}
	pr := geom.PointRect(p)
	for i := range n.Entries {
		if n.Entries[i].Rect.ContainsRect(pr) {
			if leaf, idx := t.findLeaf(n.Entries[i].Child, p, recordID, path); leaf != nil {
				return leaf, idx
			}
		}
	}
	*path = (*path)[:len(*path)-1]
	return nil, -1
}

// condense walks the deletion path bottom-up, dissolving underfull nodes and
// re-inserting their entries at the proper level.
func (t *Tree) condense(path []pager.PageID) {
	var orphans []struct {
		e     Entry
		level int
	}
	for i := len(path) - 1; i >= 1; i-- {
		n := t.peek(path[i])
		parent := t.node(path[i-1])
		if len(n.Entries) < t.minEntriesFor(n) {
			for j := range parent.Entries {
				if parent.Entries[j].Child == n.ID {
					parent.Entries = append(parent.Entries[:j], parent.Entries[j+1:]...)
					break
				}
			}
			for _, e := range n.Entries {
				orphans = append(orphans, struct {
					e     Entry
					level int
				}{e, n.Level})
			}
			t.release(n.ID)
		} else {
			for j := range parent.Entries {
				if parent.Entries[j].Child == n.ID {
					parent.Entries[j].Rect = n.MBR()
					parent.Entries[j].Count = n.subtreeCount()
					break
				}
			}
		}
	}
	for _, o := range orphans {
		reinserted := make(map[int]bool)
		t.insertEntry(o.e, o.level, reinserted)
	}
}

// CachedBytes approximates the heap held by the node cache: every cached
// entry, its coordinates and a leaf entry's record ID, without per-object
// overhead. A tree over a mapped source caches nothing and reports 0.
func (t *Tree) CachedBytes() int64 {
	entry := int64(unsafe.Sizeof(Entry{}))
	var b int64
	for _, n := range t.cache {
		coords := 2 * t.dim // a branch entry's Lo and Hi
		if n.Leaf() {
			coords = t.dim + 1 // a leaf entry's Lo and Hi are one point; its ID
		}
		b += int64(len(n.Entries)) * (entry + 8*int64(coords))
	}
	return b
}

// Finalize serialises every node the tree owns — each node of a new tree,
// and what a fork changed — to its page, and decodes the page back into
// the node, as a load would: its own entry array, now over one fresh
// coordinate slab (its rects may view coordinates shared with the tree it
// was forked from), not the scattered allocations of the build and
// mutation paths, which version after version would otherwise spread
// across the heap. The nodes are then shared, like every other cached
// node. Finalize reads no page, so it charges no tracker and never
// sleeps.
func (t *Tree) Finalize() error {
	if err := t.writable(); err != nil {
		return err
	}
	for id := range t.dirty {
		n := t.cache[id]
		page := n.encode(t.dim)
		if err := t.store.Write(id, page); err != nil {
			return fmt.Errorf("rstar: finalize node %d: %w", id, err)
		}
		n.coords, n.ids = nil, nil
		if err := n.decode(id, page); err != nil {
			return fmt.Errorf("rstar: finalize node %d: %w", id, err)
		}
		clear(n.Entries[len(n.Entries):cap(n.Entries)]) // pins no old rects
	}
	clear(t.dirty)
	return nil
}
