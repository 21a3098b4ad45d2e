package rstar

import "repro/internal/pager"

// Reader is a per-query read handle on a finalized tree. Every node access
// made through a Reader is charged to its pager.Tracker (in addition to the
// store-wide counters), which is how concurrent queries attribute I/O to
// themselves. A Reader is a small value; create one per query.
//
// The tracker may be nil, in which case the Reader behaves exactly like the
// plain Tree methods. Readers must not be used while the tree is being
// mutated (Insert/Delete/BulkLoad); queries against a finalized tree are
// safe to run concurrently.
type Reader struct {
	t  *Tree
	tr *pager.Tracker
}

// Reader creates a read handle charging node accesses to tr (nil = store
// counters only).
func (t *Tree) Reader(tr *pager.Tracker) Reader { return Reader{t: t, tr: tr} }

// Tree returns the underlying tree.
func (r Reader) Tree() *Tree { return r.t }

// Tracker returns the tracker this reader charges (possibly nil).
func (r Reader) Tracker() *pager.Tracker { return r.tr }

// Dim returns the dimensionality of indexed points.
func (r Reader) Dim() int { return r.t.dim }

// Root returns the root page ID.
func (r Reader) Root() pager.PageID { return r.t.root }

// ReadNode fetches a node for query processing, charging one page access to
// the store and to the reader's tracker.
func (r Reader) ReadNode(id pager.PageID) (*Node, error) {
	return r.t.readNode(id, r.tr, nil)
}

// ReadNodeInto is ReadNode without the allocations: it returns the cached
// node when the tree serves id from its node cache, and otherwise decodes
// the page into buf, reusing buf's Entries and coordinate storage, and
// returns buf. Either way the node is read-only, and it is valid only until
// the next read into buf: a caller that keeps anything of it copies it.
func (r Reader) ReadNodeInto(id pager.PageID, buf *Node) (*Node, error) {
	return r.t.readNode(id, r.tr, buf)
}
