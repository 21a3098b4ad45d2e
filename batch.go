package repro

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pager"
	"repro/internal/vecmath"
)

// WithBatchSharing turns on shared-arrangement batch execution for the
// algorithms that scan the whole incomparable set, BA and FCA: QueryBatch
// groups its focals by proximity and each group pays the dominance
// classification — dominator count and incomparable-set partition — once
// instead of once per query (the per-focal refinement still runs per
// query: half-space geometry depends on exact focal coordinates). See
// core.BuildGroupPrefix. The lazily-expanding AA (and Auto, which resolves
// to it) reads only n_a records from the tree and has nothing to share; a
// batch of those runs exactly as without the option. Results are
// bit-identical to independent execution at any group size; the Stats
// fields that legitimately differ (IO charges the shared scan once per
// member) are documented on Result. The default is off.
func WithBatchSharing(on bool) EngineOption {
	return func(c *engineConfig) { c.batchShare = on }
}

// BatchSharing reports whether the engine runs QueryBatch with shared
// group prefixes.
func (e *Engine) BatchSharing() bool { return e.batchShare }

// queryBatchShared is QueryBatch's execution path under WithBatchSharing:
// same contract (input-order results, first error wins and aborts the
// rest), shared-prefix execution underneath.
func (e *Engine) queryBatchShared(ctx context.Context, focalIndexes []int, cfg *queryConfig) ([]*Result, error) {
	results, errs := e.runShared(ctx, focalIndexes, cfg)
	// Prefer the member error that caused the abort over the cancellations
	// it induced in the rest of the batch (matching the independent path,
	// which reports the first real failure).
	var firstErr error
	for i, err := range errs {
		if err == nil {
			continue
		}
		wrapped := fmt.Errorf("repro: batch query for focal %d: %w", focalIndexes[i], err)
		if !errors.Is(err, context.Canceled) {
			return nil, wrapped
		}
		if firstErr == nil {
			firstErr = wrapped
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// pendingQuery is one unique (by cache key) query of a shared run and the
// input slots its result fans out to.
type pendingQuery struct {
	focal   vecmath.Point
	focalID int64
	key     string
	slots   []int
	res     *Result
	err     error
}

// runShared executes a non-empty batch of dataset focals with shared
// group prefixes. Per-slot results and errors are parallel to
// focalIndexes; the first error cancels the outstanding groups (QueryBatch
// semantics).
func (e *Engine) runShared(ctx context.Context, focalIndexes []int, cfg *queryConfig) ([]*Result, []error) {
	n := len(focalIndexes)
	results := make([]*Result, n)
	errs := make([]error, n)
	strat, serr := cfg.Algorithm.strategy()
	if serr == nil {
		if d := e.ds.Dim(); !strat.SupportsDim(d) {
			serr = fmt.Errorf("repro: algorithm %v does not support dimensionality %d: %w", cfg.Algorithm.resolved(), d, ErrBadQuery)
		}
	}

	// Validate, consult the cache, and dedupe identical queries. The shared
	// path uses the cache's peek/add surface rather than Do's singleflight:
	// in-batch duplicates collapse here.
	var queue []*pendingQuery
	byKey := make(map[string]*pendingQuery)
	for i, idx := range focalIndexes {
		e.queries.Add(1)
		if serr != nil {
			errs[i] = serr
			continue
		}
		if idx < 0 || idx >= len(e.ds.points) {
			errs[i] = fmt.Errorf("repro: focal index %d out of range [0,%d): %w", idx, len(e.ds.points), ErrBadQuery)
			continue
		}
		focal, focalID := e.ds.points[idx], int64(idx)
		key := e.cacheKey(focal, focalID, cfg)
		if e.cache != nil {
			if res, ok := e.cache.Get(key); ok {
				cp := *res
				cp.Cached = true
				results[i] = &cp
				continue
			}
		}
		if p, ok := byKey[key]; ok {
			p.slots = append(p.slots, i)
			continue
		}
		p := &pendingQuery{focal: focal, focalID: focalID, key: key, slots: []int{i}}
		byKey[key] = p
		queue = append(queue, p)
	}
	if len(queue) == 0 {
		return results, errs
	}
	for _, err := range errs {
		if err != nil {
			// QueryBatch fails on the first error anyway; don't compute
			// work whose results the caller will discard.
			return results, errs
		}
	}

	dsLo, dsHi := e.sharedGroupBounds()
	groups := groupByProximity(queue, dsLo, dsHi)
	workers := e.parallel
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers < 1 {
		workers = 1
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				gi := int(next.Add(1)) - 1
				if gi >= len(groups) || gctx.Err() != nil {
					return
				}
				if e.runSharedGroup(gctx, groups[gi], cfg, strat) {
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()

	for _, p := range queue {
		if p.err == nil && p.res == nil {
			// The worker loop stopped before reaching this query: either the
			// caller's ctx was cancelled or another member's error aborted
			// the batch.
			if p.err = ctx.Err(); p.err == nil {
				p.err = context.Canceled
			}
		}
		if p.err != nil {
			for _, slot := range p.slots {
				errs[slot] = p.err
			}
			continue
		}
		if e.cache != nil {
			e.cache.Add(p.key, p.res)
		}
		for si, slot := range p.slots {
			cp := *p.res
			// In-batch duplicates share one computation; mark the joiners
			// Cached like singleflight joiners of the independent path.
			cp.Cached = e.cache != nil && si > 0
			results[slot] = &cp
		}
	}
	return results, errs
}

// shareGridDiv is the number of grid divisions per axis the grouping pass
// quantises focals into, over the dataset's bounding box. The grid is at
// dataset scale — not the batch's own extent — so whether focals share is
// decided by how clustered they are relative to the data, which is what
// makes a shared classification conclusive: a batch of tightly clustered
// focals lands in one cell no matter how small its own bounding box is,
// while uniform focals scatter into near-singletons, which cost no more
// than independent runs. 4 per axis keeps group boxes at a quarter of the
// data's spread, loose enough to merge realistic bursts and tight enough
// that most records classify conclusively against the group box.
const shareGridDiv = 4

// sharedGroupBounds returns the dataset's bounding box, computed once per
// engine (the grouping grid is fixed for the engine's lifetime).
func (e *Engine) sharedGroupBounds() (vecmath.Point, vecmath.Point) {
	e.boundsOnce.Do(func() {
		pts := e.ds.points
		lo := pts[0].Clone()
		hi := pts[0].Clone()
		for _, p := range pts[1:] {
			for k, v := range p {
				if v < lo[k] {
					lo[k] = v
				}
				if v > hi[k] {
					hi[k] = v
				}
			}
		}
		e.dsLo, e.dsHi = lo, hi
	})
	return e.dsLo, e.dsHi
}

// groupByProximity buckets the unique queries of a shared run by a grid
// of shareGridDiv cells per axis over [lo, hi] (the dataset's bounding
// box, which contains every focal). Group order and membership order are
// deterministic (first-seen), so the engine's work is reproducible.
func groupByProximity(queue []*pendingQuery, lo, hi vecmath.Point) [][]*pendingQuery {
	if len(queue) == 1 {
		return [][]*pendingQuery{queue}
	}
	dim := len(queue[0].focal)
	var sb strings.Builder
	byCell := make(map[string]int)
	var groups [][]*pendingQuery
	for _, p := range queue {
		sb.Reset()
		for k := 0; k < dim; k++ {
			span := hi[k] - lo[k]
			cell := 0
			if span > 0 {
				cell = int((p.focal[k] - lo[k]) / span * shareGridDiv)
				if cell >= shareGridDiv { // the record at hi[k]
					cell = shareGridDiv - 1
				}
			}
			sb.WriteString(strconv.Itoa(cell))
			sb.WriteByte(',')
		}
		key := sb.String()
		gi, ok := byCell[key]
		if !ok {
			gi = len(groups)
			byCell[key] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], p)
	}
	return groups
}

// runSharedGroup executes one proximity group: singletons run the plain
// independent path (nothing to share); larger groups build the shared
// prefix once and refine each member against its view. It reports whether
// any member failed.
func (e *Engine) runSharedGroup(ctx context.Context, group []*pendingQuery, cfg *queryConfig, strat core.Algorithm) bool {
	if len(group) == 1 {
		p := group[0]
		p.res, p.err = e.compute(ctx, p.focal, p.focalID, cfg)
		return p.err != nil
	}
	focals := make([]vecmath.Point, len(group))
	for i, p := range group {
		focals[i] = p.focal
	}
	prefix, err := core.BuildGroupPrefix(ctx, e.ds.tree, focals)
	if err != nil {
		for _, p := range group {
			p.err = err
		}
		return true
	}
	failed := false
	for i, p := range group {
		tracker := new(pager.Tracker)
		in := e.ds.internalInput(p.focal, p.focalID, cfg)
		in.Ctx = ctx
		in.IO = tracker
		in.Shared = prefix.Focal(i)
		res, err := strat.Run(in)
		if err != nil {
			p.err = err
			failed = true
			continue
		}
		p.res = convertResult(res, cfg.Algorithm.resolved())
	}
	return failed
}
