// Package skyline implements the Branch-and-Bound Skyline algorithm (BBS,
// Papadias et al., TODS 2005) over the aggregate R*-tree, specialised for
// MaxRank's advanced approach (paper Section 6.2):
//
//   - only records *incomparable* to the focal record participate
//     (dominator and dominee subtrees are pruned at the MBR level);
//   - entries dominated by a current skyline record are *parked* under that
//     record instead of being discarded — this realises the paper's
//     implicit subsumption: the parked records are exactly those records
//     whose half-spaces are subsumed under the dominating record's
//     half-space;
//   - Expand(r) removes r from the skyline and re-examines the entries
//     parked under it, so no R*-tree node is ever read twice, matching the
//     paper's I/O claim.
//
// What is observable. An entry becomes effective — its node is read, or
// its record joins the skyline — in the first drain in which it is popped
// with no live member dominating it. The heap order is total (key
// descending, nodes before records, then page or record ID ascending), so
// the sequence of effective entries, and with it Accessed, the pages read
// and every record list returned, is a function of the record set and the
// Expand calls alone. Which live dominator an entry is parked under is not
// observable: the entry is re-examined whenever its holder is expanded, and
// its holder is always a live dominator, so the last of its dominators to
// be expanded is necessarily its holder at that moment. The maintainer
// uses that freedom twice. It parks under whichever dominator is cheapest
// to find: the first its search meets, or, for an entry released by the
// expansion of a staircase member, one of that member's two neighbours (see
// Expand). And it parks an entry the moment it is seen to be dominated —
// released by an Expand, or arriving from a node read — without a trip
// through the heap, because the live set only grows during a drain and the
// pop would have found it dominated still. (Equal-key nodes could be read
// in either order for the same reason — a node read adds no member, and
// nodes precede records at equal key — but the page-ID tie-break makes the
// pop sequence itself reproducible.)
//
// Layout. Every entry lives once in an index-addressed slab (key, ID,
// chain links) with its point, or its node's MBR top corner, in a parallel
// coordinate slab. The heap holds small handles, parked entries form
// intrusive chains headed in their holder's slot, and live members are a
// compact list of slab indexes. At d = 2 the live skyline is a staircase —
// ascending x is descending y — so the list is kept sorted by x and "does a
// live member dominate this corner" is one binary search and one
// comparison, or, for a released entry, no search at all; at d ≥ 3 it is a
// scan of the live members. Node pages are decoded into one scratch node
// the maintainer owns, since every point it keeps is copied into its slab.
package skyline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/pager"
	"repro/internal/rstar"
	"repro/internal/vecmath"
)

// Record is a data record surfaced by the maintainer.
type Record struct {
	Point vecmath.Point
	ID    int64
}

// slot is one entry of the slab: an R*-tree node reference or a record.
// Its coordinates — the record's point, or the node's MBR top corner, the
// upper bound dominance is tested on — are in Maintainer.coords.
type slot struct {
	key    float64 // coordinate sum of those coordinates: the heap key
	id     int64   // record ID, or the child's page ID when isNode
	next   int32   // next entry parked under the same member, -1 at the end
	parked int32   // head of the chain parked under this entry (members only), -1 when empty
	isNode bool
}

// handle is a heap element: what the order needs, and the entry's index.
type handle struct {
	key    float64
	id     int64
	ref    int32
	isNode bool
}

// Maintainer is an incremental skyline of the records incomparable to the
// focal record. A Maintainer serves a single query at a time: it reads the
// tree through a per-query rstar.Reader (attributing I/O to that query) and
// honours the query's context between node accesses. It is not safe for
// concurrent use; concurrent queries each use their own Maintainer. Reset
// re-aims a used Maintainer at the next query and keeps its slabs.
type Maintainer struct {
	ctx     context.Context
	rd      rstar.Reader
	focal   vecmath.Point
	focalID int64
	dim     int

	slots  []slot
	coords []float64 // slot i's coordinates at [i*dim, (i+1)*dim)
	heap   []handle
	// live lists the current skyline members. While stairs holds (d = 2) it
	// is ascending in x and descending in y, duplicates adjacent.
	live   []int32
	stairs bool
	out    []Record // the last drain's discoveries

	accessed int64 // records touched (for the n_a statistic)
	pops     int64 // heap pops, for the layer benchmark
	searches int64 // staircase binary searches, for the layer benchmark
	err      error // sticky: the slab outgrew slabLimit

	node rstar.Node // decode scratch for the pages the maintainer reads
}

// slabLimit bounds the entry slab, whose indexes are int32. A variable so
// that a test can reach it.
var slabLimit = math.MaxInt32

// New creates a maintainer for the records of tree that are incomparable to
// focal. focalID identifies the focal record itself inside the tree (pass a
// negative value when the focal record is not part of the dataset).
func New(tree *rstar.Tree, focal vecmath.Point, focalID int64) (*Maintainer, error) {
	return NewForQuery(context.Background(), tree.Reader(nil), focal, focalID)
}

// NewForQuery is New for one query: node accesses go through rd (charging
// its tracker) and ctx cancels the BBS search between accesses.
func NewForQuery(ctx context.Context, rd rstar.Reader, focal vecmath.Point, focalID int64) (*Maintainer, error) {
	m := new(Maintainer)
	if err := m.Reset(ctx, rd, focal, focalID); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset empties the maintainer, keeping its slabs, and aims it at a new
// query as NewForQuery does.
func (m *Maintainer) Reset(ctx context.Context, rd rstar.Reader, focal vecmath.Point, focalID int64) error {
	if len(focal) != rd.Dim() {
		return fmt.Errorf("skyline: focal dim %d != tree dim %d", len(focal), rd.Dim())
	}
	if ctx == nil {
		ctx = context.Background()
	}
	dim := len(focal)
	m.ctx, m.rd, m.dim = ctx, rd, dim
	m.focal = append(m.focal[:0], focal...)
	m.focalID = focalID
	m.slots, m.coords, m.heap = m.slots[:0], m.coords[:0], m.heap[:0]
	m.live, m.out = m.live[:0], m.out[:0]
	m.stairs = dim == 2
	m.accessed, m.pops, m.searches, m.err = 0, 0, 0, nil
	root, err := rd.ReadNodeInto(rd.Root(), &m.node)
	if err != nil {
		return err
	}
	m.pushNodeEntries(root)
	return nil
}

// Release drops the query's context and reader, so that a pooled
// Maintainer pins neither. It is unusable until the next Reset.
func (m *Maintainer) Release() { m.ctx, m.rd = nil, rstar.Reader{} }

// Poison overwrites every slab through its capacity with values no query
// could have put there, the decode scratch's coordinates and IDs included
// (the maintainer reads no counts): a test's proof that nothing a caller
// still holds reads from a released Maintainer, and that Reset rebuilds
// all it reads.
func (m *Maintainer) Poison() {
	fill(m.slots, slot{math.NaN(), -1, -2, -2, true})
	fill(m.coords, math.NaN())
	fill(m.heap, handle{math.NaN(), -1, -1, true})
	fill(m.live, -1)
	fill(m.focal, math.NaN())
	m.node.ID, m.node.Level = -1, -1
	fill(m.node.Coords(), math.NaN())
	fill(m.node.RecordIDs(), -1)
}

func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// Skyline drains the search heap and returns the skyline records discovered
// by this call (the full current skyline is available via Active). The
// slice and the points in it are the maintainer's: they are valid until its
// next Skyline, Expand or Reset.
func (m *Maintainer) Skyline() ([]Record, error) { return m.drain() }

// Active returns the current (non-expanded) skyline members.
func (m *Maintainer) Active() []Record {
	out := make([]Record, 0, len(m.live))
	for _, ref := range m.live {
		out = append(out, Record{Point: m.point(ref), ID: m.slots[ref].id})
	}
	return out
}

// Accessed returns the number of incomparable records surfaced so far (the
// paper's n_a).
func (m *Maintainer) Accessed() int64 { return m.accessed }

// Expand removes an active skyline record, re-examines the entries parked
// under it, then drains the heap. It returns the skyline records that the
// expansion uncovered, on the terms Skyline states.
//
// On a staircase the re-examination needs no search. Every entry c parked
// under the removed member r satisfies c ≤ r, so only r's neighbours can
// hold it. L, the member now left of r's position pos, has L.y ≥ r.y ≥ c.y:
// it dominates c exactly when L.x ≥ c.x, and every member before it lies
// further left. The members R from pos on have R.x ≥ r.x ≥ c.x: one
// dominates c exactly when R.y ≥ c.y, and the first has the largest y.
// Neither L nor R can equal c, which would make c a duplicate of r.
func (m *Maintainer) Expand(id int64) ([]Record, error) {
	pos := slices.IndexFunc(m.live, func(ref int32) bool { return m.slots[ref].id == id })
	if pos < 0 {
		return nil, fmt.Errorf("skyline: expand of non-active record %d", id)
	}
	member := m.live[pos]
	m.live = slices.Delete(m.live, pos, pos+1) // in order: the staircase stays one
	e := m.slots[member].parked
	m.slots[member].parked = -1
	if !m.stairs { // two loops: a test inside one slows d ≥ 3 by a twentieth
		for e >= 0 {
			next := m.slots[e].next
			m.admit(e)
			e = next
		}
		return m.drain()
	}
	for e >= 0 {
		next := m.slots[e].next
		c, from := m.point(e), pos
		if pos > 0 && m.coords[int(m.live[pos-1])*2] >= c[0] {
			from = pos - 1
		}
		m.place(e, m.stairDominator(c, from))
		e = next
	}
	return m.drain()
}

// drain processes heap entries in best-first order until the heap is empty
// or the query's context is cancelled.
func (m *Maintainer) drain() ([]Record, error) {
	m.out = m.out[:0]
	for len(m.heap) > 0 && m.err == nil {
		if err := m.ctx.Err(); err != nil {
			return nil, err
		}
		h := m.pop()
		if dom := m.dominator(m.point(h.ref)); dom >= 0 {
			m.park(dom, h.ref)
			continue
		}
		if h.isNode {
			node, err := m.rd.ReadNodeInto(pager.PageID(h.id), &m.node)
			if err != nil {
				return nil, err
			}
			m.pushNodeEntries(node)
			continue
		}
		m.join(h.ref)
		m.out = append(m.out, Record{Point: m.point(h.ref), ID: h.id})
	}
	if m.err != nil {
		return nil, m.err
	}
	return m.out, nil
}

// pushNodeEntries filters a node's entries against the incomparability
// window and admits the survivors.
func (m *Maintainer) pushNodeEntries(n *rstar.Node) {
	for i := 0; i < n.Len(); i++ {
		if n.Leaf() {
			if n.RecordID(i) == m.focalID {
				continue
			}
			// Dominators are counted separately via RangeCount; dominees
			// and duplicates of the focal record are irrelevant.
			if p := n.Lo(i); vecmath.Compare(p, m.focal) == vecmath.Incomparable {
				m.accessed++
				m.add(n.RecordID(i), false, p)
			}
			continue
		}
		// Subtree filters: all-dominee and all-dominator boxes are pruned.
		if dominatesOrEqual(m.focal, n.Hi(i)) {
			continue // every record inside is dominated by (or equals) focal
		}
		if dominatesOrEqual(n.Lo(i), m.focal) {
			continue // every record inside dominates (or equals) focal
		}
		m.add(int64(n.Child(i)), true, n.Hi(i))
	}
}

// add appends an entry to the slab and admits it.
func (m *Maintainer) add(id int64, isNode bool, pt vecmath.Point) {
	ref := len(m.slots)
	if ref >= slabLimit {
		m.err = errors.New("skyline: entry slab is full")
	}
	if m.err != nil {
		return
	}
	m.slots = append(grow(m.slots, 1), slot{key: pt.Sum(), id: id, next: -1, parked: -1, isNode: isNode})
	m.coords = append(grow(m.coords, m.dim), pt...)
	m.admit(int32(ref))
}

// grow makes room for n more elements, doubling: append grows a large
// slice by a quarter, and a cold slab would spend its query recopying.
func grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	out := make([]T, len(s), max(2*cap(s), len(s)+n, 64))
	copy(out, s)
	return out
}

// admit parks an entry under a live member that dominates it, or, when
// there is none, queues it for the drain.
func (m *Maintainer) admit(ref int32) { m.place(ref, m.dominator(m.point(ref))) }

// place parks an entry under dom, or queues it when dom is -1.
func (m *Maintainer) place(ref, dom int32) {
	if dom >= 0 {
		m.park(dom, ref)
		return
	}
	s := &m.slots[ref]
	m.push(handle{key: s.key, id: s.id, ref: ref, isNode: s.isNode})
}

func (m *Maintainer) park(member, ref int32) {
	m.slots[ref].next = m.slots[member].parked
	m.slots[member].parked = ref
}

// point returns the coordinates of entry ref as a view of the slab.
func (m *Maintainer) point(ref int32) vecmath.Point {
	off := int(ref) * m.dim
	return m.coords[off : off+m.dim : off+m.dim]
}

// dominator returns a live member that dominates the corner c, or -1.
func (m *Maintainer) dominator(c vecmath.Point) int32 {
	if !m.stairs {
		for _, ref := range m.live {
			if dominates(m.point(ref), c) {
				return ref
			}
		}
		return -1
	}
	// Of the members with x >= c's the first has the largest y, so it
	// dominates c if any does.
	return m.stairDominator(c, m.firstFrom(c[0]))
}

// stairDominator returns the staircase member at position i if it
// dominates c, or -1, given that no member from i on lies at x < c's. A
// member that *is* c, a duplicate, dominates nothing at its own position;
// whatever follows the duplicates decides then.
func (m *Maintainer) stairDominator(c vecmath.Point, i int) int32 {
	for ; i < len(m.live); i++ {
		if p := m.point(m.live[i]); p[0] != c[0] || p[1] != c[1] {
			if p[1] >= c[1] {
				return m.live[i]
			}
			break
		}
	}
	return -1
}

// firstFrom returns the position of the first live member with x >= x0 in
// the staircase.
func (m *Maintainer) firstFrom(x0 float64) int {
	m.searches++
	lo, hi := 0, len(m.live)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.coords[int(m.live[mid])*2] < x0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// join makes a record nobody dominates a live member.
func (m *Maintainer) join(ref int32) {
	i := len(m.live)
	if m.stairs {
		// The member at the insertion point, not dominating p, lies at or
		// below it. The one before lies strictly to the left, and above —
		// unless p dominates it, which only a pair whose float coordinate
		// sums tie and whose IDs ascend against dominance can bring about.
		// The live set is then no staircase, and stays a plain list for
		// the rest of the query.
		p := m.point(ref)
		if i = m.firstFrom(p[0]); i > 0 && m.point(m.live[i-1])[1] < p[1] {
			m.stairs, i = false, len(m.live)
		}
	}
	m.live = slices.Insert(m.live, i, ref)
}

// dominates reports p >= c on every axis and p != c. It is
// vecmath.DominatesStrict leaving at the first axis that decides, which at
// d = 4 makes the live-member scan over twice as fast.
func dominates(p, c vecmath.Point) bool {
	strict := false
	for i, v := range p {
		if v < c[i] {
			return false
		}
		if v > c[i] {
			strict = true
		}
	}
	return strict
}

// dominatesOrEqual reports a >= b on every axis.
func dominatesOrEqual(a, b vecmath.Point) bool {
	for i, v := range a {
		if v < b[i] {
			return false
		}
	}
	return true
}

// --- binary max-heap: key descending, nodes before records, then ID ---

// less reports whether a pops before b. The order is total. Key-tied
// records (duplicate points, or distinct points with equal coordinate
// sums) pop in record-ID order, which makes the surfacing order a pure
// function of the record set: two trees holding the same records — a
// bulk-loaded index and its incrementally mutated equivalent — discover
// their skylines in the same order, which keeps downstream arrangement
// geometry (and hence regions and witnesses) bit-identical across tree
// shapes. Key-tied nodes pop in page-ID order.
func less(a, b handle) bool {
	if a.key != b.key {
		return a.key > b.key
	}
	if a.isNode != b.isNode {
		return a.isNode
	}
	return a.id < b.id
}

func (m *Maintainer) push(h handle) {
	m.heap = append(grow(m.heap, 1), h)
	i := len(m.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h, m.heap[parent]) {
			break
		}
		m.heap[i] = m.heap[parent]
		i = parent
	}
	m.heap[i] = h
}

func (m *Maintainer) pop() handle {
	m.pops++
	top := m.heap[0]
	last := len(m.heap) - 1
	h := m.heap[last]
	m.heap = m.heap[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && less(m.heap[r], m.heap[c]) {
			c = r
		}
		if !less(m.heap[c], h) {
			break
		}
		m.heap[i] = m.heap[c]
		i = c
	}
	if last > 0 {
		m.heap[i] = h
	}
	return top
}
