package server

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro"
)

// latWindow is the number of most-recent query latencies each dataset's
// overall ring retains for quantile estimation. 4096 eight-byte samples
// keep the per-dataset footprint at 32 KiB while making p99 meaningful
// (≈41 samples above it at a full ring).
const latWindow = 4096

// costWindow is the window of each per-class cost ring. Classes are
// narrow (one algorithm × τ-bucket × batch-size bucket), so 256 samples
// give a stable p50 without letting dozens of classes dominate memory.
const costWindow = 256

// minCostSamples is how many samples a class ring needs before its p50 is
// trusted as a cost estimate; below it the dataset's overall p50 is used.
// A handful of samples from a heavy class would otherwise whipsaw the
// admission arithmetic.
const minCostSamples = 8

// latRing is a fixed-size ring of latencies. Recording is O(1) under a
// mutex; quantiles sort a snapshot on demand (stats is called by
// /v1/stats, not on the query path).
type latRing struct {
	mu      sync.Mutex
	samples []float64 // milliseconds; len = configured window
	next    int
	filled  bool
	count   int64   // lifetime samples, not capped by the window
	max     float64 // lifetime maximum

	// Cached p50/p95 for the admission controller, which consults the
	// ring on every shed decision and must not pay a full sort each
	// time. Recomputed at most once per estRecompute, and only when
	// new samples arrived since the last computation.
	estAt    time.Time
	estCount int64
	estP50   float64
	estP95   float64
}

func newLatRing(window int) *latRing {
	return &latRing{samples: make([]float64, window)}
}

// estRecompute bounds how often estimate() re-sorts the ring. 100ms is
// far below the timescale on which a latency distribution drifts, and
// caps the estimator's cost at ~10 sorts/s however hot the shed path is.
const estRecompute = 100 * time.Millisecond

func (r *latRing) record(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	r.mu.Lock()
	r.samples[r.next] = ms
	r.next++
	if r.next == len(r.samples) {
		r.next = 0
		r.filled = true
	}
	r.count++
	if ms > r.max {
		r.max = ms
	}
	r.mu.Unlock()
}

// LatencyStats reports a dataset's query-latency distribution: quantiles
// over the most recent latWindow successful /v1/query requests (measured
// from handler entry, so admission-queue wait is included), plus lifetime
// count and maximum.
type LatencyStats struct {
	// Count is the number of successful queries recorded since the dataset
	// was first served (not capped by the quantile window).
	Count int64 `json:"count"`
	// P50Ms, P95Ms and P99Ms are latency quantiles in milliseconds over
	// the most recent samples.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	// MaxMs is the lifetime maximum latency in milliseconds.
	MaxMs float64 `json:"max_ms"`
}

// stats computes the quantiles from a snapshot of the ring; nil when no
// sample was ever recorded.
func (r *latRing) stats() *LatencyStats {
	r.mu.Lock()
	n := r.next
	if r.filled {
		n = len(r.samples)
	}
	if n == 0 {
		r.mu.Unlock()
		return nil
	}
	snap := make([]float64, n)
	copy(snap, r.samples[:n])
	out := &LatencyStats{Count: r.count, MaxMs: r.max}
	r.mu.Unlock()
	sort.Float64s(snap)
	out.P50Ms = quantile(snap, 0.50)
	out.P95Ms = quantile(snap, 0.95)
	out.P99Ms = quantile(snap, 0.99)
	return out
}

// estimate returns cached p50/p95 over the ring (milliseconds; zeros
// when no sample was recorded) plus the lifetime sample count. Unlike
// stats it is cheap enough for the admission hot path: the sort reruns at
// most once per estRecompute.
func (r *latRing) estimate() (p50, p95 float64, count int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.filled {
		n = len(r.samples)
	}
	if n == 0 {
		return 0, 0, 0
	}
	if r.count != r.estCount && time.Since(r.estAt) >= estRecompute {
		snap := make([]float64, n)
		copy(snap, r.samples[:n])
		sort.Float64s(snap)
		r.estP50 = quantile(snap, 0.50)
		r.estP95 = quantile(snap, 0.95)
		r.estAt = time.Now()
		r.estCount = r.count
	}
	return r.estP50, r.estP95, r.count
}

// quantile returns the nearest-rank q-quantile of ascending-sorted samples.
func quantile(sorted []float64, q float64) float64 {
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// costClass keys one cost ring: the admission controller's belief about
// how expensive a request shaped like this is. Algorithm is the
// *requested* strategy (what the client controls, hence what groups
// requests of like cost), the τ and batch-size axes are bucketed
// logarithmically so a 4096-way class explosion cannot happen.
type costClass struct {
	alg    string
	tauB   int
	batchB int
}

// classOf buckets one request's shape. batch is the focal count (1 for
// /v1/query).
func classOf(o repro.QueryOptions, batch int) costClass {
	return costClass{alg: o.Algorithm.String(), tauB: logBucket(o.Tau), batchB: logBucket(batch - 1)}
}

// logBucket maps a non-negative magnitude to a coarse logarithmic bucket:
// 0, 1-3, 4-10, 11-100, >100.
func logBucket(n int) int {
	switch {
	case n <= 0:
		return 0
	case n <= 3:
		return 1
	case n <= 10:
		return 2
	case n <= 100:
		return 3
	default:
		return 4
	}
}

// String renders the class for the stats surface ("AA/tau1/batch0").
func (c costClass) String() string {
	return c.alg + "/tau" + strconv.Itoa(c.tauB) + "/batch" + strconv.Itoa(c.batchB)
}

// dsLatency is one dataset's latency state: the overall /v1/query ring
// (quantiles in /v1/stats, the cost model's baseline work unit) plus one
// cost ring per observed request class.
type dsLatency struct {
	overall *latRing

	mu      sync.Mutex
	classes map[costClass]*latRing
}

func newDSLatency() *dsLatency {
	return &dsLatency{overall: newLatRing(latWindow), classes: make(map[costClass]*latRing)}
}

func (d *dsLatency) class(c costClass) *latRing {
	d.mu.Lock()
	r := d.classes[c]
	if r == nil {
		r = newLatRing(costWindow)
		d.classes[c] = r
	}
	d.mu.Unlock()
	return r
}

// CostClassStats is one request class's slice of the dataset's cost model
// in GET /v1/stats: what the admission controller currently believes a
// request of this shape costs.
type CostClassStats struct {
	// Class names the (algorithm, τ-bucket, batch-size-bucket) key, e.g.
	// "AA/tau1/batch0".
	Class string `json:"class"`
	// EstimateMs is the class's current p50 service-time estimate.
	EstimateMs float64 `json:"estimate_ms"`
	// Samples is the lifetime sample count (the estimate is trusted from
	// 8 samples; below that the dataset's overall p50 is used instead).
	Samples int64 `json:"samples"`
}

// dsLat returns the named dataset's latency state, creating it on first
// use.
func (s *Server) dsLat(name string) *dsLatency {
	s.latMu.Lock()
	d := s.lat[name]
	if d == nil {
		d = newDSLatency()
		s.lat[name] = d
	}
	s.latMu.Unlock()
	return d
}

// recordLatency folds one successful query's handler latency into the
// named dataset's overall ring.
func (s *Server) recordLatency(name string, d time.Duration) {
	s.dsLat(name).overall.record(d)
}

// recordCost folds one execution's duration into its class ring — the
// cost model's learning path. Unlike recordLatency this measures the
// engine execution alone (no queueing wait), so the estimate converges on
// service time rather than sojourn time.
func (s *Server) recordCost(name string, c costClass, d time.Duration) {
	s.dsLat(name).class(c).record(d)
}

// latencyStats returns the named dataset's latency quantiles, or nil when
// no query completed against it yet.
func (s *Server) latencyStats(name string) *LatencyStats {
	s.latMu.Lock()
	d := s.lat[name]
	s.latMu.Unlock()
	if d == nil {
		return nil
	}
	return d.overall.stats()
}

// latencyEstimate returns the named dataset's cached p50/p95 overall
// latency in milliseconds (zeros before any query completes) — the cost
// model's baseline work unit and the Retry-After drain estimate.
func (s *Server) latencyEstimate(name string) (p50, p95 float64) {
	s.latMu.Lock()
	d := s.lat[name]
	s.latMu.Unlock()
	if d == nil {
		return 0, 0
	}
	p50, p95, _ = d.overall.estimate()
	return p50, p95
}

// costEstimate returns the estimated service milliseconds for a request
// of the given class: the class ring's p50 once it has minCostSamples,
// the dataset's overall p50 before that, and 0 when nothing has ever
// completed (which disables cost-aware math exactly like the pre-model
// behaviour).
func (s *Server) costEstimate(name string, c costClass) float64 {
	s.latMu.Lock()
	d := s.lat[name]
	s.latMu.Unlock()
	if d == nil {
		return 0
	}
	d.mu.Lock()
	r := d.classes[c]
	d.mu.Unlock()
	if r != nil {
		if p50, _, n := r.estimate(); n >= minCostSamples {
			return p50
		}
	}
	p50, _, _ := d.overall.estimate()
	return p50
}

// costStats snapshots the dataset's cost-model table for /v1/stats,
// sorted by class name; nil when no class has a sample yet.
func (s *Server) costStats(name string) []CostClassStats {
	s.latMu.Lock()
	d := s.lat[name]
	s.latMu.Unlock()
	if d == nil {
		return nil
	}
	d.mu.Lock()
	classes := make(map[costClass]*latRing, len(d.classes))
	for c, r := range d.classes {
		classes[c] = r
	}
	d.mu.Unlock()
	out := make([]CostClassStats, 0, len(classes))
	for c, r := range classes {
		p50, _, n := r.estimate()
		if n == 0 {
			continue
		}
		out = append(out, CostClassStats{Class: c.String(), EstimateMs: p50, Samples: n})
	}
	if len(out) == 0 {
		return nil
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// dropLatency discards the named dataset's rings (detach): a later
// dataset of the same name starts a fresh distribution.
func (s *Server) dropLatency(name string) {
	s.latMu.Lock()
	delete(s.lat, name)
	s.latMu.Unlock()
}
