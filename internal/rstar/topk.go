package rstar

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/pager"
	"repro/internal/vecmath"
)

// TopK returns the k records with the highest scores under query vector q,
// in descending score order, using best-first branch-and-bound over the
// tree: a subtree's upper bound is the score of its MBR's top corner, so
// whole subtrees that cannot reach the current k-th score are never read.
// This is the query model the MaxRank paper is defined against.
func (r Reader) TopK(q vecmath.Point, k int) ([]Item, error) {
	if len(q) != r.t.dim {
		return nil, fmt.Errorf("rstar: query dim %d != tree dim %d", len(q), r.t.dim)
	}
	if k <= 0 {
		return nil, fmt.Errorf("rstar: k = %d", k)
	}
	pq := &scoreHeap{{score: math.Inf(1), node: r.t.root}}
	out := make([]Item, 0, k)
	for pq.Len() > 0 && len(out) < k {
		e := heap.Pop(pq).(scoredEntry)
		if e.node == pager.NilPage {
			out = append(out, e.item)
			continue
		}
		n, err := r.ReadNodeInto(e.node, nil) // items keep the node's points
		if err != nil {
			return nil, err
		}
		pushNodeScored(pq, n, q)
	}
	return out, nil
}

type scoredEntry struct {
	score float64
	node  pager.PageID // pager.NilPage for a record entry
	item  Item
}

type scoreHeap []scoredEntry

func (h scoreHeap) Len() int           { return len(h) }
func (h scoreHeap) Less(i, j int) bool { return h[i].score > h[j].score }
func (h scoreHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *scoreHeap) Push(x any)        { *h = append(*h, x.(scoredEntry)) }
func (h *scoreHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

func pushNodeScored(pq *scoreHeap, n *Node, q vecmath.Point) {
	for i := range n.Entries {
		e := &n.Entries[i]
		if n.Leaf() {
			heap.Push(pq, scoredEntry{
				score: e.Point().Dot(q),
				node:  pager.NilPage,
				item:  Item{Point: e.Point(), RecordID: e.RecordID},
			})
			continue
		}
		// Upper bound: score of the MBR corner maximising each term.
		var ub float64
		for j, w := range q {
			if w >= 0 {
				ub += w * e.Rect.Hi[j]
			} else {
				ub += w * e.Rect.Lo[j]
			}
		}
		heap.Push(pq, scoredEntry{score: ub, node: e.Child})
	}
}
