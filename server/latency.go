package server

import (
	"math"
	"sort"
	"sync"
	"time"
)

// latWindow is the number of most-recent query latencies each dataset's
// ring retains for quantile estimation. 4096 eight-byte samples
// keep the per-dataset footprint at 32 KiB while making p99 meaningful
// (≈41 samples above it at a full ring).
const latWindow = 4096

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

	// Cached p50 for the admission controller, which consults the ring
	// on every shed decision and must not pay a full sort each time.
	// Recomputed at most once per estRecompute, and only when new
	// samples arrived since the last computation.
	estAt    time.Time
	estCount int64
	estP50   float64
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

// estimate returns the cached p50 over the ring in milliseconds (zero
// when no sample was recorded). Unlike stats it is cheap enough for the
// admission hot path: the sort reruns at most once per estRecompute.
func (r *latRing) estimate() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.filled {
		n = len(r.samples)
	}
	if n == 0 {
		return 0
	}
	if r.count != r.estCount && time.Since(r.estAt) >= estRecompute {
		snap := make([]float64, n)
		copy(snap, r.samples[:n])
		sort.Float64s(snap)
		r.estP50 = quantile(snap, 0.50)
		r.estAt = time.Now()
		r.estCount = r.count
	}
	return r.estP50
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

// recordLatency folds one successful query's handler latency into the
// named dataset's ring, creating it on first use.
func (s *Server) recordLatency(name string, d time.Duration) {
	s.latMu.Lock()
	r := s.lat[name]
	if r == nil {
		r = newLatRing(latWindow)
		s.lat[name] = r
	}
	s.latMu.Unlock()
	r.record(d)
}

// latencyRing returns the named dataset's ring, or nil when no query
// completed against it yet.
func (s *Server) latencyRing(name string) *latRing {
	s.latMu.Lock()
	defer s.latMu.Unlock()
	return s.lat[name]
}

// latencyStats returns the named dataset's latency quantiles, or nil when
// no query completed against it yet.
func (s *Server) latencyStats(name string) *LatencyStats {
	if r := s.latencyRing(name); r != nil {
		return r.stats()
	}
	return nil
}

// latencyEstimate returns the named dataset's cached p50 query latency in
// milliseconds (zero before any query completes): the deadline shedder's
// service-time estimate and the Retry-After drain estimate.
func (s *Server) latencyEstimate(name string) float64 {
	if r := s.latencyRing(name); r != nil {
		return r.estimate()
	}
	return 0
}

// dropLatency discards the named dataset's ring (detach): a later
// dataset of the same name starts a fresh distribution.
func (s *Server) dropLatency(name string) {
	s.latMu.Lock()
	delete(s.lat, name)
	s.latMu.Unlock()
}
