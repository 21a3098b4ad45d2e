package rstar

import (
	"fmt"

	"repro/internal/pager"
)

// Restore reconstructs a finalized tree from previously persisted pages —
// the load path of an index snapshot. The store must already hold every
// node page (pager.Store.Restore); root, height and size are the metadata
// persisted alongside them. Fanout limits are recomputed from the store's
// page size and the dimensionality, exactly as New does, so a restored
// tree is structurally indistinguishable from the one that was persisted:
// identical pages, identical page IDs, identical query-time I/O counts.
//
// With Options.DirectMemory the node cache is rebuilt eagerly by decoding
// every page (uncounted, like construction I/O), so query reads are served
// from memory just as they are after an in-process build; otherwise reads
// decode pages on demand. In both modes the decoded nodes are bit-identical
// to the originals — the page encoding is exact for float64 coordinates.
func Restore(store *pager.Store, dim int, root pager.PageID, height int, size int64, opts Options) (*Tree, error) {
	return RestoreFrom(store, dim, root, height, size, opts)
}

// RestoreFrom is Restore over any page source. When src is a heap
// *pager.Store the tree is writable, exactly as Restore; for any other
// source — a pager.Mapped view over a memory-mapped v2 snapshot — the tree
// is read-only: queries serve straight from the source (decode-on-read,
// identical answers and I/O counts) and mutation attempts fail with a
// typed error instead of writing through the mapping.
func RestoreFrom(src pager.Source, dim int, root pager.PageID, height int, size int64, opts Options) (*Tree, error) {
	if dim < 1 {
		return nil, fmt.Errorf("rstar: dimension %d < 1", dim)
	}
	if height < 1 {
		return nil, fmt.Errorf("rstar: height %d < 1", height)
	}
	if size < 0 {
		return nil, fmt.Errorf("rstar: negative size %d", size)
	}
	ps := opts.PageSize
	if ps <= 0 {
		ps = src.PageSize()
	}
	maxLeaf := MaxLeafEntries(ps, dim)
	maxBranch := MaxBranchEntries(ps, dim)
	if maxLeaf < 4 || maxBranch < 4 {
		return nil, fmt.Errorf("rstar: page size %d too small for dim %d (fanout %d/%d)",
			ps, dim, maxLeaf, maxBranch)
	}
	store, _ := src.(*pager.Store)
	t := &Tree{
		src:       src,
		store:     store,
		dim:       dim,
		maxLeaf:   maxLeaf,
		minLeaf:   max(2, int(minFillFraction*float64(maxLeaf))),
		maxBranch: maxBranch,
		minBranch: max(2, int(minFillFraction*float64(maxBranch))),
		cache:     make(map[pager.PageID]*Node),
		direct:    opts.DirectMemory,
		root:      root,
		height:    height,
		size:      size,
		finalized: true,
	}
	src.SetCounting(false)
	defer src.SetCounting(true)
	if opts.DirectMemory {
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
		if _, ok := t.cache[root]; !ok {
			return nil, fmt.Errorf("rstar: restore: root page %d missing from store", root)
		}
	}
	// Sanity-check the root against the persisted metadata whether or not
	// the cache was rebuilt: a wrong root (or a store holding pages of a
	// different tree) must fail at load time, not at first query.
	rn, err := t.ReadNode(root)
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
