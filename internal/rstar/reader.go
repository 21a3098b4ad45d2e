package rstar

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/pager"
)

// Reader is a per-query read handle on a finalized tree. Every node access
// made through a Reader is charged to its pager.Tracker, the only I/O count
// the storage keeps, which is how concurrent queries attribute I/O to
// themselves. A Reader is a small value; create one per query.
//
// The tracker may be nil, in which case the reads are counted nowhere.
// Readers must not be used while the tree is being mutated
// (Insert/Delete/BulkLoad); queries against a finalized tree are safe to
// run concurrently.
type Reader struct {
	t  *Tree
	tr *pager.Tracker
}

// Reader creates a read handle charging node accesses to tr (nil = no
// count).
func (t *Tree) Reader(tr *pager.Tracker) Reader { return Reader{t: t, tr: tr} }

// Dim returns the dimensionality of indexed points.
func (r Reader) Dim() int { return r.t.dim }

// Root returns the root page ID.
func (r Reader) Root() pager.PageID { return r.t.root }

// ReadNodeInto fetches a node for query processing, charging one page
// access to the reader's tracker. It returns the cached node when the tree
// keeps one (a tree over a heap store always does), and otherwise decodes
// the page into buf, reusing buf's slabs, and returns buf (a new Node when
// buf is nil). Either way the node is
// read-only, and it is valid only until the next read into buf: a caller
// that keeps anything of it copies it.
func (r Reader) ReadNodeInto(id pager.PageID, buf *Node) (*Node, error) {
	return r.t.readNode(id, r.tr, buf)
}

// Descend walks the tree depth first from the root, reading nodes in page
// order. On a branch node n it calls enter(n, i) for each entry i in turn,
// and reads that entry's child next when enter returns true; a leaf node it
// hands to leaf whole, whose error ends the walk and is returned as is.
// When ctx is non-nil it is polled before every node read.
//
// Node reads are charged as ReadNodeInto's are, so a walk reads the pages a
// recursive scan with the same tests would. Nodes the tree does not cache
// are decoded into per-depth scratch, so a warm walk allocates nothing: the
// nodes handed to enter and leaf are valid only during the call.
func (r Reader) Descend(ctx context.Context, enter func(n *Node, i int) bool, leaf func(n *Node) error) error {
	w := acquireWalk()
	defer releaseWalk(w)
	return r.descend(ctx, w, r.t.root, 0, enter, leaf)
}

func (r Reader) descend(ctx context.Context, w *walk, id pager.PageID, depth int, enter func(n *Node, i int) bool, leaf func(n *Node) error) error {
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	for len(w.nodes) <= depth {
		w.nodes = append(w.nodes, new(Node))
	}
	n, err := r.t.readNode(id, r.tr, w.nodes[depth])
	if err != nil {
		return err
	}
	if n.Leaf() {
		return leaf(n)
	}
	for i := 0; i < n.Len(); i++ {
		if enter(n, i) {
			if err := r.descend(ctx, w, n.Child(i), depth+1, enter, leaf); err != nil {
				return err
			}
		}
	}
	return nil
}

// walk is Descend's scratch: one decode buffer per tree depth.
type walk struct{ nodes []*Node }

// freeWalks is the LIFO free list of walk scratch, capped at GOMAXPROCS
// entries: the policy of core's free list of query states, for its reason.
// A sync.Pool drops its contents every second GC and parks them per P, so
// whether a walk decoded into warm buffers would be a property of the run.
var freeWalks struct {
	sync.Mutex
	list []*walk
}

func acquireWalk() *walk {
	freeWalks.Lock()
	defer freeWalks.Unlock()
	n := len(freeWalks.list)
	if n == 0 {
		return new(walk)
	}
	w := freeWalks.list[n-1]
	freeWalks.list[n-1] = nil
	freeWalks.list = freeWalks.list[:n-1]
	return w
}

func releaseWalk(w *walk) {
	freeWalks.Lock()
	defer freeWalks.Unlock()
	if len(freeWalks.list) < runtime.GOMAXPROCS(0) {
		freeWalks.list = append(freeWalks.list, w)
	}
}
