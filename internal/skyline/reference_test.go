package skyline

// The test-only oracle: the Maintainer as it stood before the slab rewrite
// (records cloned per heap entry, every parked entry pushed back through
// the heap on Expand, map[int64][]entry parking), copied verbatim apart
// from the ref prefix on its names and a pop counter. The differential
// tests drive it and the real Maintainer through the same call sequences;
// BenchmarkExpand quotes its pops/op beside the real one's.

import (
	"context"
	"fmt"

	"repro/internal/pager"
	"repro/internal/rstar"
	"repro/internal/vecmath"
)

// refEntry is a heap element: either an R*-tree node reference or a record.
type refEntry struct {
	key    float64 // upper bound of coordinate sum within the refEntry
	isNode bool
	child  pager.PageID  // when isNode
	hi     vecmath.Point // MBR top corner (node) — dominance upper bound
	lo     vecmath.Point // MBR bottom corner (node)
	rec    Record        // when !isNode
}

// refMaintainer is an incremental skyline of the records incomparable to the
// focal record. A refMaintainer belongs to a single query: it reads the tree
// through a per-query rstar.Reader (attributing I/O to that query) and
// honours the query's context between node accesses. It is not safe for
// concurrent use; concurrent queries each build their own refMaintainer.
type refMaintainer struct {
	ctx     context.Context
	rd      rstar.Reader
	focal   vecmath.Point
	focalID int64

	heap     []refEntry
	active   []Record             // skyline members in discovery order (incl. expanded)
	live     []bool               // live[i]: active[i] not yet expanded
	activeID map[int64]int        // record ID -> index in active
	expanded map[int64]bool       // records expanded (removed) so far
	parked   map[int64][]refEntry // entries parked under an active record
	accessed int64                // records touched (for the n_a statistic)
	pops     int64                // heap pops (the oracle's only addition)
}

// refNew creates a maintainer for the records of tree that are incomparable to
// focal. focalID identifies the focal record itself inside the tree (pass a
// negative value when the focal record is not part of the dataset).
func refNew(tree *rstar.Tree, focal vecmath.Point, focalID int64) (*refMaintainer, error) {
	return refNewForQuery(context.Background(), tree.Reader(nil), focal, focalID)
}

// refNewForQuery is refNew for one query: node accesses go through rd (charging
// its tracker) and ctx cancels the BBS search between accesses.
func refNewForQuery(ctx context.Context, rd rstar.Reader, focal vecmath.Point, focalID int64) (*refMaintainer, error) {
	if len(focal) != rd.Dim() {
		return nil, fmt.Errorf("skyline: focal dim %d != tree dim %d", len(focal), rd.Dim())
	}
	if ctx == nil {
		ctx = context.Background()
	}
	m := &refMaintainer{
		ctx:      ctx,
		rd:       rd,
		focal:    focal.Clone(),
		focalID:  focalID,
		activeID: make(map[int64]int),
		expanded: make(map[int64]bool),
		parked:   make(map[int64][]refEntry),
	}
	root, err := rd.ReadNodeInto(rd.Root(), nil)
	if err != nil {
		return nil, err
	}
	m.pushNodeEntries(root)
	return m, nil
}

// Skyline drains the search heap and returns the skyline records discovered
// by this call (the full current skyline is available via Active).
func (m *refMaintainer) Skyline() ([]Record, error) { return m.drain() }

// Active returns the current (non-expanded) skyline members.
func (m *refMaintainer) Active() []Record {
	out := make([]Record, 0, len(m.active))
	for i, r := range m.active {
		if m.live[i] {
			out = append(out, r)
		}
	}
	return out
}

// Accessed returns the number of incomparable records surfaced so far (the
// paper's n_a).
func (m *refMaintainer) Accessed() int64 { return m.accessed }

// Expand removes an active skyline record and releases the entries parked
// under it, then drains the heap. It returns the skyline records that the
// expansion uncovered.
func (m *refMaintainer) Expand(id int64) ([]Record, error) {
	idx, ok := m.activeID[id]
	if !ok || !m.live[idx] {
		return nil, fmt.Errorf("skyline: expand of non-active record %d", id)
	}
	m.live[idx] = false
	m.expanded[id] = true
	for _, e := range m.parked[id] {
		m.push(e)
	}
	delete(m.parked, id)
	return m.drain()
}

// drain processes heap entries in best-first order until the heap is empty
// or the query's context is cancelled.
func (m *refMaintainer) drain() ([]Record, error) {
	var added []Record
	for len(m.heap) > 0 {
		if err := m.ctx.Err(); err != nil {
			return nil, err
		}
		e := m.pop()
		if e.isNode {
			if dom := m.dominatingActive(e.hi); dom >= 0 {
				m.park(dom, e)
				continue
			}
			node, err := m.rd.ReadNodeInto(e.child, nil)
			if err != nil {
				return nil, err
			}
			m.pushNodeEntries(node)
			continue
		}
		if dom := m.dominatingActive(e.rec.Point); dom >= 0 {
			m.park(dom, e)
			continue
		}
		m.active = append(m.active, e.rec)
		m.live = append(m.live, true)
		m.activeID[e.rec.ID] = len(m.active) - 1
		added = append(added, e.rec)
	}
	return added, nil
}

// pushNodeEntries filters a node's entries against the incomparability
// window and pushes survivors onto the heap.
func (m *refMaintainer) pushNodeEntries(n *rstar.Node) {
	for i := 0; i < n.Len(); i++ {
		if n.Leaf() {
			if n.RecordID(i) == m.focalID {
				continue
			}
			switch vecmath.Compare(n.Lo(i), m.focal) {
			case vecmath.Incomparable:
				m.accessed++
				p := n.Lo(i).Clone()
				m.push(refEntry{key: p.Sum(), rec: Record{Point: p, ID: n.RecordID(i)}})
			default:
				// Dominators are counted separately via RangeCount; dominees
				// and duplicates of the focal record are irrelevant.
			}
			continue
		}
		// Subtree filters: all-dominee and all-dominator boxes are pruned.
		if refDominatesOrEqual(m.focal, n.Hi(i)) {
			continue // every record inside is dominated by (or equals) focal
		}
		if refDominatesOrEqual(n.Lo(i), m.focal) {
			continue // every record inside dominates (or equals) focal
		}
		m.push(refEntry{
			key:    n.Hi(i).Sum(),
			isNode: true,
			child:  n.Child(i),
			hi:     n.Hi(i).Clone(),
			lo:     n.Lo(i).Clone(),
		})
	}
}

// dominatingActive returns the index of an active skyline record that
// dominates the given upper-bound point, or -1.
func (m *refMaintainer) dominatingActive(hi vecmath.Point) int {
	for i, r := range m.active {
		if !m.live[i] {
			continue
		}
		if vecmath.DominatesStrict(r.Point, hi) {
			return i
		}
	}
	return -1
}

func (m *refMaintainer) park(activeIdx int, e refEntry) {
	id := m.active[activeIdx].ID
	m.parked[id] = append(m.parked[id], e)
}

// refDominatesOrEqual reports a >= b on every axis.
func refDominatesOrEqual(a, b vecmath.Point) bool {
	for i, v := range a {
		if v < b[i] {
			return false
		}
	}
	return true
}

// --- binary max-heap keyed by (key desc, nodes before records) ---

func refEntryLess(a, b refEntry) bool { // true when a has higher priority
	if a.key != b.key {
		return a.key > b.key
	}
	if a.isNode != b.isNode {
		return a.isNode
	}
	// Key-tied records (duplicate points, or distinct points with equal
	// coordinate sums) pop in record-ID order. This makes the surfacing
	// order a pure function of the record set: two trees holding the same
	// records — a bulk-loaded index and its incrementally mutated
	// equivalent — discover their skylines in the same order, which keeps
	// downstream arrangement geometry (and hence regions and witnesses)
	// bit-identical across tree shapes.
	if !a.isNode {
		return a.rec.ID < b.rec.ID
	}
	return a.child < b.child
}

func (m *refMaintainer) push(e refEntry) {
	m.heap = append(m.heap, e)
	i := len(m.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !refEntryLess(m.heap[i], m.heap[parent]) {
			break
		}
		m.heap[i], m.heap[parent] = m.heap[parent], m.heap[i]
		i = parent
	}
}

func (m *refMaintainer) pop() refEntry {
	m.pops++
	top := m.heap[0]
	last := len(m.heap) - 1
	m.heap[0] = m.heap[last]
	m.heap = m.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(m.heap) && refEntryLess(m.heap[l], m.heap[best]) {
			best = l
		}
		if r < len(m.heap) && refEntryLess(m.heap[r], m.heap[best]) {
			best = r
		}
		if best == i {
			break
		}
		m.heap[i], m.heap[best] = m.heap[best], m.heap[i]
		i = best
	}
	return top
}
