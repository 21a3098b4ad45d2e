package core

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/quadtree"
)

// collectCellsParallel is the intra-query parallel counterpart of the
// sequential leaf loop in collectCells. It distributes the two phases of
// per-iteration work across up to `workers` goroutines:
//
//  1. Gather: workers claim quad-tree subtrees (quadtree.Subtrees) from a
//     shared index and collect their leaves into per-worker buffers; the
//     merge reassembles global DFS order, and a stable counting sort by
//     |Fl| then yields exactly the claim order the sequential scan uses.
//  2. Enumerate: workers claim leaves from the sorted order through a
//     shared atomic cursor — the lowest-|Fl| (most promising) leaves are
//     always handed out first — and run the within-leaf module on their
//     own execShard: a private cellenum.Enumerator (pooled LP tableaus and
//     scratch), private cell list and private stats.
//
// Cross-worker state is minimal: the claim cursors, a CAS-min interim
// bound, a monotone prune cutoff, and the AA leaf cache behind a mutex.
//
// Determinism. The returned (minOrder, cells) is bit-identical to the
// sequential scan at any worker count and any schedule:
//
//   - The shared bound only ever decreases, and it is always >= the final
//     bound, so a stale bound enumerates a superset of the needed weights
//     and prunes a subset of the prunable leaves; the final trim (against
//     the converged bound) removes exactly the surplus.
//   - A cell below the current best always survives the per-cell skip, so
//     the CAS-min converges to the same minimum the sequential scan finds;
//     skipped cells always exceed the final bound + τ.
//   - Each leaf's enumeration is internally deterministic (seeded by the
//     leaf's node ID and version), so merging worker output by (leaf
//     position, cell sequence) reproduces the sequential append order.
//
// Only the work counters — LPCalls, LeavesProcessed, LeavesPruned — depend
// on scheduling, because a worker may enumerate a leaf before a better
// bound would have capped or pruned it.
func collectCellsParallel(ctx context.Context, qt *quadtree.Tree, in *Input, stats *Stats, orderCap int, st *execState, useCache bool, workers int) (int, []foundCell, error) {
	// Phase 1: claim subtrees, gather leaves, restore DFS order.
	subs := qt.Subtrees(4 * workers)
	shards := st.ensureShards(workers)
	segBySub := make([]struct {
		shard *execShard
		seg   leafSeg
	}, len(subs))
	var subCursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(sh *execShard) {
			defer wg.Done()
			for {
				si := int(subCursor.Add(1)) - 1
				if si >= len(subs) {
					return
				}
				start := len(sh.leaves)
				sh.leaves = subs[si].AppendLeaves(sh.leaves)
				seg := leafSeg{sub: si, start: start, end: len(sh.leaves)}
				sh.segs = append(sh.segs, seg)
				// Each subtree index is claimed by exactly one worker, so
				// these writes land on disjoint elements.
				segBySub[si].shard = sh
				segBySub[si].seg = seg
			}
		}(shards[w])
	}
	wg.Wait()
	st.leaves = st.leaves[:0]
	for si := range segBySub {
		if sh := segBySub[si].shard; sh != nil {
			seg := segBySub[si].seg
			st.leaves = append(st.leaves, sh.leaves[seg.start:seg.end]...)
		}
	}
	order := st.sortLeavesByFullCount(st.leaves)
	total := len(order)

	// Phase 2: claim leaves in ascending-|Fl| order.
	const noBest = math.MaxInt64
	var (
		cursor  atomic.Int64
		best    atomic.Int64 // CAS-min of cell orders; noBest = none yet
		cutoff  atomic.Int64 // first claim index proven prunable
		failed  atomic.Bool
		errOnce sync.Once
		runErr  error
	)
	best.Store(noBest)
	cutoff.Store(int64(total))
	// bound mirrors the sequential closure: the tighter of orderCap and the
	// best order found so far, -1 when neither constrains.
	bound := func() int {
		b := orderCap
		if v := best.Load(); v != noBest && (b < 0 || int(v) < b) {
			b = int(v)
		}
		return b
	}
	fail := func(err error) {
		errOnce.Do(func() { runErr = err })
		failed.Store(true)
	}
	if workers > total {
		workers = total
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(sh *execShard) {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				i := cursor.Add(1) - 1
				if i >= int64(total) || i >= cutoff.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				leaf := order[i]
				if b := bound(); b >= 0 && leaf.FullCount() > b+in.Tau {
					// The claim order ascends by |Fl|: every leaf at or
					// after i is at least as full, so the whole tail is
					// prunable under the (only ever tightening) bound.
					storeMin(&cutoff, i)
					return
				}
				sh.visited++
				maxW := -1
				if b := bound(); b >= 0 {
					maxW = b + in.Tau - leaf.FullCount()
				}
				out, hit := st.cacheLookup(leaf, maxW, in.Tau, useCache, true)
				if !hit {
					out = enumerateLeaf(qt, in, leaf, maxW, &sh.enum, &sh.partial)
					sh.stats.LeavesProcessed++
					sh.stats.LPCalls += int64(out.LPCalls)
					st.cacheStore(leaf, out, useCache, true)
				}
				for seq, cell := range out.Cells {
					o := leaf.FullCount() + cell.POrder()
					if b := bound(); b >= 0 && o > b+in.Tau {
						continue
					}
					storeMin(&best, int64(o))
					sh.cells = append(sh.cells, foundCell{
						leaf: leaf, cell: cell, order: o, pos: int(i), seq: seq,
					})
				}
			}
		}(shards[w])
	}
	wg.Wait()
	if failed.Load() {
		return 0, nil, runErr
	}

	// Merge: concatenate worker output and restore the sequential append
	// order (leaf position, then cell sequence within the leaf).
	cells := st.cells[:0]
	visited := 0
	for _, sh := range shards {
		cells = append(cells, sh.cells...)
		sh.cells = sh.cells[:0]
		stats.LeavesProcessed += sh.stats.LeavesProcessed
		stats.LPCalls += sh.stats.LPCalls
		visited += sh.visited
		sh.stats = Stats{}
		sh.visited = 0
		sh.leaves = sh.leaves[:0]
		sh.segs = sh.segs[:0]
	}
	stats.LeavesPruned += total - visited
	sort.Slice(cells, func(a, b int) bool {
		if cells[a].pos != cells[b].pos {
			return cells[a].pos < cells[b].pos
		}
		return cells[a].seq < cells[b].seq
	})

	minOrder := -1
	if v := best.Load(); v != noBest {
		minOrder = int(v)
	}
	// Trim to the final bound (cells collected under stale bounds may
	// exceed it) — same post-pass as the sequential scan.
	b := orderCap
	if minOrder >= 0 && (b < 0 || minOrder < b) {
		b = minOrder
	}
	st.cells = trimCells(cells, b, in.Tau)
	return minOrder, st.cells, nil
}

// storeMin lowers an atomic to v unless it already holds something
// smaller.
func storeMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v >= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
