// Package rstar implements the R*-tree of Beckmann et al. (SIGMOD 1990),
// augmented with per-entry subtree record counts in the style of the
// aggregate R-tree (Papadias et al., SSTD 2001). It is the data-space index
// the MaxRank paper assumes: the dominator count |D+| is answered by an
// aggregate range count, the depth-first scans walk the tree through
// Reader.Descend, and the BBS skyline algorithm (internal/skyline) drives
// its own best-first traversal through Reader.ReadNodeInto.
//
// Nodes are sized to the pager's page size and are serialised to pages, so
// query-time I/O counts reflect genuine page accesses. In memory a node is
// its page's content in three pointer-free slabs, coordinates, IDs and
// counts, read through accessors; there is no per-entry struct.
package rstar

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/pager"
	"repro/internal/vecmath"
)

// Node is one page of entries, held in three slabs as the page lists them:
// coords (a leaf's entry i is the point at [i·d, (i+1)·d), a branch's its
// Lo then Hi at [i·2d, (i+1)·2d)), ids (a leaf's record IDs, a branch's
// child page IDs) and counts (a branch's subtree record counts). The
// slabs hold no pointers, so copying a node is three copies and the
// collector never scans one. Entry i is read through the accessors.
type Node struct {
	ID     pager.PageID
	Level  int // 0 = leaf
	dim    int
	coords []float64
	ids    []int64
	counts []int64 // branch only
}

// Len returns the number of entries.
func (n *Node) Len() int { return len(n.ids) }

// Lo returns entry i's lower bound (a leaf entry's point). It views the
// coordinate slab, capped, so an append to it never overwrites the next
// entry.
func (n *Node) Lo(i int) vecmath.Point { return n.rect(i).Lo }

// Hi returns entry i's upper bound (a leaf entry's point), as Lo does.
func (n *Node) Hi(i int) vecmath.Point { return n.rect(i).Hi }

// Child returns a branch entry's child page.
func (n *Node) Child(i int) pager.PageID { return pager.PageID(n.ids[i]) }

// RecordID returns a leaf entry's record ID.
func (n *Node) RecordID(i int) int64 { return n.ids[i] }

// Count returns the records under entry i: 1 for a leaf entry.
func (n *Node) Count(i int) int64 {
	if n.Leaf() {
		return 1
	}
	return n.counts[i]
}

// Coords returns the coordinate slab (see Node). Leaf loops read it and
// RecordIDs rather than calling the accessors entry by entry.
func (n *Node) Coords() []float64 { return n.coords }

// RecordIDs returns a leaf's record IDs in entry order.
func (n *Node) RecordIDs() []int64 { return n.ids }

// Leaf reports whether the node is at leaf level.
func (n *Node) Leaf() bool { return n.Level == 0 }

// width is the number of coordinates an entry holds.
func (n *Node) width() int {
	if n.Leaf() {
		return n.dim
	}
	return 2 * n.dim
}

// rect views entry i's bounds.
func (n *Node) rect(i int) geom.Rect {
	w := n.width()
	lo, hi := i*w, (i+1)*w-n.dim
	return geom.Rect{Lo: n.coords[lo : lo+n.dim : lo+n.dim], Hi: n.coords[hi : hi+n.dim : hi+n.dim]}
}

// push appends an entry with bounds r (a leaf entry's Hi is its Lo).
func (n *Node) push(r geom.Rect, id, count int64) {
	n.coords = append(n.coords, r.Lo...)
	if !n.Leaf() {
		n.coords = append(n.coords, r.Hi...)
		n.counts = append(n.counts, count)
	}
	n.ids = append(n.ids, id)
}

// pushFrom appends entry i of src.
func (n *Node) pushFrom(src *Node, i int) { n.push(src.rect(i), src.ids[i], src.Count(i)) }

// pushChild appends a branch entry for child c, bounded and counted as
// setChild bounds and counts it.
func (n *Node) pushChild(c *Node) {
	n.push(c.rect(0), int64(c.ID), 0)
	n.setChild(n.Len()-1, c)
}

// setChild sets branch entry i's bounds to c's MBR and its count to c's
// record count.
func (n *Node) setChild(i int, c *Node) {
	c.mbrInto(n.rect(i), 0, c.Len())
	n.counts[i] = c.subtreeCount()
}

// childIndex returns the index of the entry pointing at child id, or -1.
func (n *Node) childIndex(id pager.PageID) int {
	for i, c := range n.ids {
		if pager.PageID(c) == id {
			return i
		}
	}
	return -1
}

// remove deletes entry i, keeping the order of the rest.
func (n *Node) remove(i int) {
	w := n.width()
	n.coords = append(n.coords[:i*w], n.coords[(i+1)*w:]...)
	n.ids = append(n.ids[:i], n.ids[i+1:]...)
	if !n.Leaf() {
		n.counts = append(n.counts[:i], n.counts[i+1:]...)
	}
}

// empty removes every entry, keeping the slabs.
func (n *Node) empty() { n.coords, n.ids, n.counts = n.coords[:0], n.ids[:0], n.counts[:0] }

// reserve makes room for k more entries.
func (n *Node) reserve(k int) {
	n.coords = slices.Grow(n.coords, k*n.width())
	n.ids = slices.Grow(n.ids, k)
	if !n.Leaf() {
		n.counts = slices.Grow(n.counts, k)
	}
}

// clone copies the node into slabs of its own with room for extra more
// entries.
func (n *Node) clone(extra int) *Node {
	c := &Node{ID: n.ID, Level: n.Level, dim: n.dim}
	c.reserve(n.Len() + extra)
	c.coords = append(c.coords, n.coords...)
	c.ids = append(c.ids, n.ids...)
	c.counts = append(c.counts, n.counts...)
	return c
}

// mbrInto writes the minimum bounding rectangle of entries [from, to)
// into r.
func (n *Node) mbrInto(r geom.Rect, from, to int) {
	copy(r.Lo, n.Lo(from))
	copy(r.Hi, n.Hi(from))
	for i := from + 1; i < to; i++ {
		r.Extend(n.rect(i))
	}
}

// subtreeCount returns the number of data records under this node.
func (n *Node) subtreeCount() int64 {
	if n.Leaf() {
		return int64(n.Len())
	}
	var c int64
	for _, v := range n.counts {
		c += v
	}
	return c
}

// Serialised layout:
//
//	header: level uint16 | entryCount uint16 | dim uint16 | pad uint16
//	leaf entry:   d coords float64 | recordID int64
//	branch entry: d lo float64 | d hi float64 | child int64 | count int64
const nodeHeaderSize = 8

// leafEntrySize returns the on-page byte size of a leaf entry.
func leafEntrySize(dim int) int { return 8*dim + 8 }

// branchEntrySize returns the on-page byte size of a branch entry.
func branchEntrySize(dim int) int { return 16*dim + 16 }

// MaxLeafEntries computes the leaf fanout for a page size and dimension.
func MaxLeafEntries(pageSize, dim int) int {
	return (pageSize - nodeHeaderSize) / leafEntrySize(dim)
}

// MaxBranchEntries computes the branch fanout for a page size and dimension.
func MaxBranchEntries(pageSize, dim int) int {
	return (pageSize - nodeHeaderSize) / branchEntrySize(dim)
}

// encode serialises the node into a page-sized buffer.
func (n *Node) encode() []byte {
	buf := make([]byte, nodeHeaderSize+8*(len(n.coords)+len(n.ids)+len(n.counts)))
	binary.LittleEndian.PutUint16(buf[0:], uint16(n.Level))
	binary.LittleEndian.PutUint16(buf[2:], uint16(n.Len()))
	binary.LittleEndian.PutUint16(buf[4:], uint16(n.dim))
	off, w := nodeHeaderSize, n.width()
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[off:], v)
		off += 8
	}
	for i, id := range n.ids {
		for _, v := range n.coords[i*w : (i+1)*w] {
			put(math.Float64bits(v))
		}
		put(uint64(id))
		if !n.Leaf() {
			put(uint64(n.counts[i]))
		}
	}
	return buf
}

// decode reconstructs the node from its page image into its own slabs,
// reusing them when their capacity suffices.
func (n *Node) decode(id pager.PageID, page []byte) error {
	if len(page) < nodeHeaderSize {
		return fmt.Errorf("rstar: page %d truncated (%d bytes)", id, len(page))
	}
	level := int(binary.LittleEndian.Uint16(page[0:]))
	count := int(binary.LittleEndian.Uint16(page[2:]))
	dim := int(binary.LittleEndian.Uint16(page[4:]))
	entSize := branchEntrySize(dim)
	if level == 0 {
		entSize = leafEntrySize(dim)
	}
	if want := nodeHeaderSize + count*entSize; len(page) < want {
		return fmt.Errorf("rstar: page %d has %d bytes, want %d", id, len(page), want)
	}
	n.ID, n.Level, n.dim = id, level, dim
	w := n.width()
	n.coords = resize(n.coords, count*w)
	n.ids = resize(n.ids, count)
	n.counts = n.counts[:0]
	if level > 0 {
		n.counts = resize(n.counts, count)
	}
	off := nodeHeaderSize
	get := func() uint64 {
		v := binary.LittleEndian.Uint64(page[off:])
		off += 8
		return v
	}
	for i := range n.ids {
		for j := i * w; j < (i+1)*w; j++ {
			n.coords[j] = math.Float64frombits(get())
		}
		n.ids[i] = int64(get())
		if level > 0 {
			n.counts[i] = int64(get())
		}
	}
	return nil
}

// resize returns s with length n, reallocating only when its capacity is
// short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
