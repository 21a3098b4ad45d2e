// Package rstar implements the R*-tree of Beckmann et al. (SIGMOD 1990),
// augmented with per-entry subtree record counts in the style of the
// aggregate R-tree (Papadias et al., SSTD 2001). It is the data-space index
// the MaxRank paper assumes: the dominator count |D+| is answered by an
// aggregate range count, the depth-first scans walk the tree through
// Reader.Descend, and the BBS skyline algorithm (internal/skyline) drives
// its own best-first traversal through Reader.ReadNodeInto.
//
// Nodes are sized to the pager's page size and are serialised to pages, so
// query-time I/O counts reflect genuine page accesses.
package rstar

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/pager"
	"repro/internal/vecmath"
)

// Entry is a slot in a node: either a child pointer with its MBR and
// aggregate count (branch nodes) or a data point with its record ID (leaf
// nodes).
type Entry struct {
	Rect     geom.Rect
	Child    pager.PageID // branch entries only
	RecordID int64        // leaf entries only
	Count    int64        // records in the subtree (1 for leaf entries)
}

// Point returns the data point of a leaf entry (its degenerate MBR corner).
func (e *Entry) Point() vecmath.Point { return e.Rect.Lo }

// Node is one page worth of entries.
type Node struct {
	ID      pager.PageID
	Level   int // 0 = leaf
	Entries []Entry
	coords  []float64 // a decoded node's coordinates, which its entries' rects view
}

// Leaf reports whether the node is at leaf level.
func (n *Node) Leaf() bool { return n.Level == 0 }

// MBR returns the minimum bounding rectangle of all entries.
func (n *Node) MBR() geom.Rect {
	r := n.Entries[0].Rect.Clone()
	for _, e := range n.Entries[1:] {
		r.Extend(e.Rect)
	}
	return r
}

// subtreeCount returns the number of data records under this node.
func (n *Node) subtreeCount() int64 {
	var c int64
	for i := range n.Entries {
		c += n.Entries[i].Count
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
func (n *Node) encode(dim int) []byte {
	var size int
	if n.Leaf() {
		size = nodeHeaderSize + len(n.Entries)*leafEntrySize(dim)
	} else {
		size = nodeHeaderSize + len(n.Entries)*branchEntrySize(dim)
	}
	buf := make([]byte, size)
	binary.LittleEndian.PutUint16(buf[0:], uint16(n.Level))
	binary.LittleEndian.PutUint16(buf[2:], uint16(len(n.Entries)))
	binary.LittleEndian.PutUint16(buf[4:], uint16(dim))
	off := nodeHeaderSize
	putF := func(v float64) {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	putI := func(v int64) {
		binary.LittleEndian.PutUint64(buf[off:], uint64(v))
		off += 8
	}
	for i := range n.Entries {
		e := &n.Entries[i]
		if n.Leaf() {
			for j := 0; j < dim; j++ {
				putF(e.Rect.Lo[j])
			}
			putI(e.RecordID)
		} else {
			for j := 0; j < dim; j++ {
				putF(e.Rect.Lo[j])
			}
			for j := 0; j < dim; j++ {
				putF(e.Rect.Hi[j])
			}
			putI(int64(e.Child))
			putI(e.Count)
		}
	}
	return buf
}

// decode reconstructs the node from its page image, reusing its Entries
// and coordinate slab when their capacity suffices. All of the page's
// coordinates go to the one slab; each rect bound is a capacity-capped
// window of it, so an append to one reallocates instead of overwriting the
// next.
func (n *Node) decode(id pager.PageID, page []byte) error {
	if len(page) < nodeHeaderSize {
		return fmt.Errorf("rstar: page %d truncated (%d bytes)", id, len(page))
	}
	level := int(binary.LittleEndian.Uint16(page[0:]))
	count := int(binary.LittleEndian.Uint16(page[2:]))
	dim := int(binary.LittleEndian.Uint16(page[4:]))
	entSize, width := branchEntrySize(dim), 2*dim
	if level == 0 {
		entSize, width = leafEntrySize(dim), dim
	}
	if want := nodeHeaderSize + count*entSize; len(page) < want {
		return fmt.Errorf("rstar: page %d has %d bytes, want %d", id, len(page), want)
	}
	n.ID, n.Level = id, level
	n.Entries = resize(n.Entries, count)
	n.coords = resize(n.coords, count*width)
	off := nodeHeaderSize
	getI := func() int64 {
		v := int64(binary.LittleEndian.Uint64(page[off:]))
		off += 8
		return v
	}
	for i := range n.Entries {
		c := n.coords[i*width : (i+1)*width : (i+1)*width]
		for j := range c {
			c[j] = math.Float64frombits(binary.LittleEndian.Uint64(page[off:]))
			off += 8
		}
		if level == 0 {
			n.Entries[i] = Entry{Rect: geom.Rect{Lo: c, Hi: c}, RecordID: getI(), Count: 1}
		} else {
			child := pager.PageID(getI())
			n.Entries[i] = Entry{Rect: geom.Rect{Lo: c[:dim:dim], Hi: c[dim:]}, Child: child, Count: getI()}
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
