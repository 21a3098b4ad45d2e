package repro

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/pager"
	"repro/internal/vecmath"
)

// Engine executes MaxRank / iMaxRank queries against one Dataset. Unlike
// the free Compute functions (which it powers), an Engine is built for
// serving: any number of Query calls may run concurrently against the
// shared index, QueryBatch fans a workload across a bounded worker pool,
// every query carries a context whose cancellation and deadline are
// honoured inside the algorithm loops, and each Result reports the page
// reads of that query alone even while other queries hammer the same
// store.
//
// The Engine holds no mutable query state itself — per-query scratch lives
// in pooled execution states inside the core package — so one Engine (and
// one Dataset) serves an arbitrary number of goroutines.
type Engine struct {
	ds       *Dataset
	parallel int
	defaults []Option
	cacheCap int // as configured, so Apply can equip successors alike
	cache    *cache.Cache[*Result]
	queries  atomic.Int64
}

// EngineOption configures engine construction.
type EngineOption func(*engineConfig)

type engineConfig struct {
	parallel      int
	defaults      []Option
	cacheCapacity int
}

// WithParallelism bounds the worker pool used by QueryBatch (and any other
// engine-initiated fan-out). The default is runtime.GOMAXPROCS(0). It does
// not limit direct Query calls, which run on the caller's goroutine.
//
// Parallelism is across queries only: every query, in a batch or not, runs
// on one goroutine.
//
// Under WithPageLatency, a pool larger than the core count overlaps the
// simulated waits: on 2 cores, a 16-focal FCA batch (IND n = 5000, d = 2,
// 50 µs a page) takes 31–33 ms with WithParallelism(16) and 404–414 ms
// with the default.
func WithParallelism(n int) EngineOption {
	return func(c *engineConfig) { c.parallel = n }
}

// WithQueryParallelism does nothing: every query runs on one goroutine.
//
// Deprecated: parallelism is across queries only (WithParallelism,
// concurrent Query calls). The option remains only so existing callers
// compile.
func WithQueryParallelism(int) EngineOption {
	return func(*engineConfig) {}
}

// WithQueryDefaults sets query options applied to every query before the
// per-call options (so per-call options win).
func WithQueryDefaults(opts ...Option) EngineOption {
	return func(c *engineConfig) { c.defaults = append(c.defaults, opts...) }
}

// WithCache gives the engine an LRU result cache holding up to capacity
// results, keyed by the full query identity (dataset fingerprint, focal,
// algorithm, τ and the remaining query options). MaxRank results are
// deterministic per key, so a repeated query is answered from memory with
// Result.Cached set; N concurrent identical queries are deduplicated so
// that exactly one computes while the rest wait for and share its result.
// Capacity <= 0 disables caching (the default).
//
// Every Result from a cache-enabled engine shares its Regions storage
// with the cache and with other callers of the same query — treat Regions
// (and everything reachable from them) as read-only, whether or not
// Cached is set.
func WithCache(capacity int) EngineOption {
	return func(c *engineConfig) { c.cacheCapacity = capacity }
}

// ErrBadQuery marks query failures caused by the request itself — a focal
// index out of range, a what-if record of the wrong dimensionality, an
// unknown algorithm, or an algorithm that does not support the dataset's
// dimensionality — as opposed to internal failures. Test with
// errors.Is(err, ErrBadQuery); serving layers map it to a client error.
var ErrBadQuery = errors.New("invalid query")

// ErrLeafTruncated marks a BA or AA query that failed rather than risk a k*
// that is too high: a quad-tree leaf held more candidate cells than the
// within-leaf enumeration examines, and one it left out could beat the
// answer. Test with errors.Is(err, ErrLeafTruncated).
var ErrLeafTruncated = core.ErrLeafTruncated

// NewEngine creates a query engine over the dataset.
func NewEngine(ds *Dataset, opts ...EngineOption) (*Engine, error) {
	if ds == nil {
		return nil, fmt.Errorf("repro: nil dataset")
	}
	cfg := engineConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.parallel <= 0 {
		cfg.parallel = runtime.GOMAXPROCS(0)
	}
	e := &Engine{ds: ds, parallel: cfg.parallel, defaults: cfg.defaults, cacheCap: cfg.cacheCapacity}
	if cfg.cacheCapacity > 0 {
		e.cache = cache.New[*Result](cfg.cacheCapacity)
	}
	return e, nil
}

// Dataset returns the engine's dataset.
func (e *Engine) Dataset() *Dataset { return e.ds }

// Parallelism returns the batch worker-pool bound.
func (e *Engine) Parallelism() int { return e.parallel }

// EngineStats is a point-in-time snapshot of an engine's serving
// counters. The json tags fix the wire schema served by the repro/server
// package independently of the Go field names.
type EngineStats struct {
	// Queries counts queries started (including cache hits and failed
	// queries; batch items count individually).
	Queries int64 `json:"queries"`
	// CacheEnabled reports whether the engine was built WithCache.
	CacheEnabled bool `json:"cache_enabled"`
	// CacheHits counts queries answered from the cache, including callers
	// that joined an in-flight computation of the same key.
	CacheHits int64 `json:"cache_hits"`
	// CacheMisses counts queries that had to compute.
	CacheMisses int64 `json:"cache_misses"`
	// CacheEvictions counts results dropped because the cache was full.
	CacheEvictions int64 `json:"cache_evictions"`
	// CacheSize is the number of results currently cached.
	CacheSize int `json:"cache_size"`
	// CacheCapacity is the cache's maximum entry count (0 when disabled).
	CacheCapacity int `json:"cache_capacity"`
}

// Stats returns a snapshot of the engine's serving counters. Safe to call
// concurrently with queries.
func (e *Engine) Stats() EngineStats {
	s := EngineStats{Queries: e.queries.Load()}
	if e.cache != nil {
		cs := e.cache.Stats()
		s.CacheEnabled = true
		s.CacheHits = cs.Hits
		s.CacheMisses = cs.Misses
		s.CacheEvictions = cs.Evictions
		s.CacheSize = cs.Size
		s.CacheCapacity = cs.Capacity
	}
	return s
}

// Query runs MaxRank for the dataset record with the given index. The
// context's cancellation and deadline are honoured inside the algorithm
// loops; a cancelled query returns ctx.Err() promptly. The query runs on
// the caller's goroutine.
func (e *Engine) Query(ctx context.Context, focalIndex int, opts ...Option) (*Result, error) {
	if focalIndex < 0 || focalIndex >= len(e.ds.points) {
		return nil, fmt.Errorf("repro: focal index %d out of range [0,%d): %w", focalIndex, len(e.ds.points), ErrBadQuery)
	}
	return e.run(ctx, e.ds.points[focalIndex], int64(focalIndex), opts)
}

// QueryOpts is Query in struct form: the options arrive as one
// QueryOptions value instead of a positional Option list. Callers that
// build their configuration from data (API handlers, config files) use
// this; both forms share every code path and return identical results.
func (e *Engine) QueryOpts(ctx context.Context, focalIndex int, o QueryOptions) (*Result, error) {
	return e.Query(ctx, focalIndex, o.option())
}

// QueryPointOpts is QueryPoint in struct form; see QueryOpts.
func (e *Engine) QueryPointOpts(ctx context.Context, record []float64, o QueryOptions) (*Result, error) {
	return e.QueryPoint(ctx, record, o.option())
}

// QueryPoint runs MaxRank for a hypothetical record that is not part of
// the dataset (the paper's "what-if" scenario: evaluating a product before
// launching it).
func (e *Engine) QueryPoint(ctx context.Context, record []float64, opts ...Option) (*Result, error) {
	if len(record) != e.ds.Dim() {
		return nil, fmt.Errorf("repro: focal has %d attributes, dataset has %d: %w", len(record), e.ds.Dim(), ErrBadQuery)
	}
	for i, v := range record {
		// A non-finite focal would poison score comparisons and LP
		// feasibility silently; reject it like dataset construction does.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("repro: focal attribute %d is %v; coordinates must be finite: %w", i, v, ErrBadQuery)
		}
	}
	return e.run(ctx, vecmath.Point(record).Clone(), -1, opts)
}

// QueryBatchOpts is QueryBatch in struct form; see QueryOpts.
func (e *Engine) QueryBatchOpts(ctx context.Context, focalIndexes []int, o QueryOptions) ([]*Result, error) {
	return e.QueryBatch(ctx, focalIndexes, o.option())
}

// QueryBatch runs MaxRank for every listed focal record on a worker pool
// bounded by the engine's parallelism, returning results in input order.
// The first query error cancels the remaining work and is returned (wrapped
// with the offending focal index); likewise ctx cancellation aborts the
// whole batch. Each query runs on one batch worker.
func (e *Engine) QueryBatch(ctx context.Context, focalIndexes []int, opts ...Option) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(focalIndexes) == 0 {
		return nil, nil
	}
	workers := e.parallel
	if workers > len(focalIndexes) {
		workers = len(focalIndexes)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]*Result, len(focalIndexes))
	var (
		next     atomic.Int64
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(focalIndexes) || ctx.Err() != nil {
					return
				}
				res, err := e.Query(ctx, focalIndexes[i], opts...)
				if err != nil {
					fail(fmt.Errorf("repro: batch query for focal %d: %w", focalIndexes[i], err))
					return
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// run executes one query: it resolves options against the engine defaults,
// consults the result cache (when enabled), and otherwise computes.
func (e *Engine) run(ctx context.Context, focal vecmath.Point, focalID int64, opts []Option) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.queries.Add(1)
	cfg := e.queryConfig(opts)
	if e.cache == nil {
		return e.compute(ctx, focal, focalID, &cfg)
	}
	res, hit, err := e.cache.Do(ctx, e.cacheKey(focal, focalID, &cfg), func() (*Result, error) {
		return e.compute(ctx, focal, focalID, &cfg)
	})
	if err != nil {
		return nil, err
	}
	// Never hand out the struct stored in the cache itself — every caller
	// (the computing one included) gets a shallow copy, flagged Cached on
	// hits. The Regions backing array stays shared; see WithCache.
	cp := *res
	cp.Cached = hit
	return &cp, nil
}

// queryConfig resolves per-query options against the engine defaults, and
// the dataset-level quad-tree defaults before any cache key is built, so
// the key reflects the partitioning actually used. Only zero resolves;
// negative values flow through to the quadtree package, which treats them
// as "library default" — the per-query escape hatch from a dataset's tuned
// defaults (see WithQuadTree).
func (e *Engine) queryConfig(opts []Option) queryConfig {
	cfg := queryConfig{}
	for _, o := range e.defaults {
		o(&cfg)
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.QuadMaxPartial == 0 {
		cfg.QuadMaxPartial = e.ds.quadMaxPartial
	}
	if cfg.QuadMaxDepth == 0 {
		cfg.QuadMaxDepth = e.ds.quadMaxDepth
	}
	return cfg
}

// cacheKey identifies a query result: dataset content, focal record and
// every query option that shapes the answer. In-dataset focals are keyed
// by index; what-if focals (focalID < 0) by their coordinates.
func (e *Engine) cacheKey(focal vecmath.Point, focalID int64, cfg *queryConfig) string {
	var b strings.Builder
	b.WriteString(e.ds.Fingerprint())
	b.WriteByte('|')
	if focalID >= 0 {
		b.WriteString(strconv.FormatInt(focalID, 10))
	} else {
		buf := make([]byte, 0, 8*len(focal))
		for _, v := range focal {
			if v == 0 {
				// -0.0 == 0.0 as a coordinate, but their bit patterns
				// differ; normalise so equal what-if focals share one
				// cache entry.
				v = 0
			}
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		b.WriteString("pt:")
		b.WriteString(hex.EncodeToString(buf))
	}
	fmt.Fprintf(&b, "|%d|%d|%d|%d|%t",
		cfg.Algorithm.resolved(), cfg.Tau, cfg.QuadMaxPartial, cfg.QuadMaxDepth, cfg.OutrankIDs)
	return b.String()
}

// compute executes one query for real: it picks the strategy and
// attributes I/O to a per-query tracker.
func (e *Engine) compute(ctx context.Context, focal vecmath.Point, focalID int64, cfg *queryConfig) (*Result, error) {
	strat, err := cfg.Algorithm.strategy()
	if err != nil {
		return nil, err
	}
	if d := e.ds.Dim(); !strat.SupportsDim(d) {
		return nil, fmt.Errorf("repro: algorithm %v does not support dimensionality %d: %w", cfg.Algorithm.resolved(), d, ErrBadQuery)
	}
	tracker := new(pager.Tracker)
	in := e.ds.internalInput(focal, focalID, cfg)
	in.Ctx = ctx
	in.IO = tracker
	res, err := strat.Run(in)
	if err != nil {
		return nil, err
	}
	return convertResult(res, cfg.Algorithm.resolved()), nil
}

// strategy maps the public Algorithm selector to its core strategy.
func (a Algorithm) strategy() (core.Algorithm, error) {
	switch a {
	case Auto, AA:
		// Auto picks the paper's best general algorithm; StrategyAA itself
		// dispatches to the d = 2 specialisation when applicable.
		return core.StrategyAA, nil
	case FCA:
		return core.StrategyFCA, nil
	case BA:
		return core.StrategyBA, nil
	}
	return nil, fmt.Errorf("repro: unsupported algorithm %v: %w", a, ErrBadQuery)
}

// resolved normalises Auto to the algorithm actually executed, for Stats.
func (a Algorithm) resolved() Algorithm {
	if a == Auto {
		return AA
	}
	return a
}
