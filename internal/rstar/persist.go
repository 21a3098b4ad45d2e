package rstar

import (
	"encoding/binary"
	"fmt"

	"repro/internal/pager"
)

// RestoreFrom reconstructs a finalized tree from previously persisted
// pages — the load path of an index snapshot. src must already hold every
// node page; root, height and size are the metadata persisted alongside
// them. Fanout limits are recomputed from the page size and the
// dimensionality, exactly as New does, so a restored tree is structurally
// indistinguishable from the one that was persisted: identical pages,
// identical page IDs, identical query-time I/O counts.
//
// The source decides how the tree is read (see Tree): over a heap
// *pager.Store the node cache is rebuilt here, decoding every page that
// ForEachPage hands over. Decoded nodes are bit-identical to the
// originals: the page encoding is exact for float64 coordinates. The one
// page read, the root's, charges no tracker; it would sleep for src's
// latency, so callers set the latency only after RestoreFrom returns.
func RestoreFrom(src pager.Source, dim int, root pager.PageID, height int, size int64, opts Options) (*Tree, error) {
	if height < 1 {
		return nil, fmt.Errorf("rstar: height %d < 1", height)
	}
	if size < 0 {
		return nil, fmt.Errorf("rstar: negative size %d", size)
	}
	t, err := emptyTree(src, dim)
	if err != nil {
		return nil, err
	}
	t.root, t.height, t.size = root, height, size
	if t.store != nil {
		err := src.ForEachPage(func(id pager.PageID, data []byte) error {
			n := new(Node)
			if err := n.decode(id, data); err != nil {
				return fmt.Errorf("rstar: restore page %d: %w", id, err)
			}
			t.cache[id] = n
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	// Sanity-check the root against the persisted metadata: a wrong root
	// (or a store holding pages of a different tree) must fail at load
	// time, not at first query.
	rn, err := t.readNode(root, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("rstar: restore: reading root page %d: %w", root, err)
	}
	if rn.Level != height-1 {
		return nil, fmt.Errorf("rstar: restore: root level %d inconsistent with height %d", rn.Level, height)
	}
	if got := rn.subtreeCount(); got != size {
		return nil, fmt.Errorf("rstar: restore: root subtree count %d != persisted size %d", got, size)
	}
	return t, nil
}

// IsLeafPage reports whether a node page holds a leaf.
func IsLeafPage(page []byte) bool {
	return len(page) >= nodeHeaderSize && binary.LittleEndian.Uint16(page[0:]) == 0
}

// RelabelLeafPage rewrites the record IDs of a leaf page in place: record
// ID id becomes index[id]. It lets a tree that keeps its own record IDs
// persist pages under the IDs a reader of the pages expects; those are
// record indexes, so 4 bytes an ID hold them. An ID outside index is an
// error.
func RelabelLeafPage(page []byte, index []uint32) error {
	if !IsLeafPage(page) {
		return fmt.Errorf("rstar: relabel of a page that is not a leaf")
	}
	count := int(binary.LittleEndian.Uint16(page[2:]))
	dim := int(binary.LittleEndian.Uint16(page[4:]))
	size := leafEntrySize(dim)
	if want := nodeHeaderSize + count*size; len(page) < want {
		return fmt.Errorf("rstar: leaf page has %d bytes, want %d", len(page), want)
	}
	for off := nodeHeaderSize + size - 8; off < nodeHeaderSize+count*size; off += size {
		id := binary.LittleEndian.Uint64(page[off:])
		if id >= uint64(len(index)) {
			return fmt.Errorf("rstar: leaf record ID %d outside the relabelling table [0,%d)", int64(id), len(index))
		}
		binary.LittleEndian.PutUint64(page[off:], uint64(index[id]))
	}
	return nil
}
