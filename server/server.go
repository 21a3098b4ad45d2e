// Package server exposes one or more repro.Engines over an HTTP/JSON
// API — the serving layer behind the maxrankd daemon. Engines live in a
// Registry keyed by dataset name, so one process serves many indexed
// datasets; single-dataset deployments register theirs as "default" and
// never mention names.
//
// Endpoints:
//
//	POST   /v1/query                   one MaxRank / iMaxRank query (in-dataset or what-if focal)
//	POST   /v1/batch                   many queries on the engine's worker pool
//	GET    /v1/datasets                served datasets: names, versions, fingerprints, point counts
//	POST   /v1/datasets                attach a dataset from an index snapshot (admin)
//	DELETE /v1/datasets/{name}         detach a dataset, draining its in-flight queries (admin)
//	POST   /v1/datasets/{name}/mutate  apply point inserts/deletes, swapping in a new dataset version
//	GET    /v1/stats                   per-dataset, engine/cache and server counters
//	GET    /healthz                    liveness probe
//	GET    /debug/vars                 expvar metrics (Go runtime + maxrank counters)
//
// Query and batch requests address a dataset with their "dataset" field;
// when omitted, the sole served dataset (or the one named "default") is
// used. Every request runs under a per-request timeout, responses are
// JSON, and Shutdown drains in-flight requests (graceful shutdown).
// Results are served from the addressed engine's deduplicating cache when
// it was built with repro.WithCache; a cached answer is marked
// "cached": true and is byte-identical to any other cached answer for the
// same query; concurrent identical queries share one computation through
// that cache's singleflight, the only request-merging the server does.
// With WithAdmission, each dataset gets a bounded accept queue and
// deadline-aware load shedding: overload is answered early with 429/503 +
// Retry-After instead of being queued without bound (see
// docs/OPERATIONS.md, "Overload tuning").
package server

import (
	"context"
	"expvar"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/server/apiv1"
)

// Server serves MaxRank queries from the engines in a Registry. Construct
// with New (one engine, served as "default") or NewMulti (a shared
// registry); the zero value is not usable. A Server is itself an
// http.Handler, so it can be mounted under a larger mux or driven by
// httptest.
type Server struct {
	reg        *Registry
	loader     func(path string) (*repro.Engine, error)
	mutateHook func(name string, eng *repro.Engine, version uint64)
	mutLog     MutationLog // nil: mutations are not write-ahead logged
	mux        *http.ServeMux
	timeout    time.Duration
	maxBatch   int
	maxOps     int
	maxBody    int64
	logger     *log.Logger
	start      time.Time

	admitLimit int           // WithAdmission in-flight cap in requests (<= 0: admission off)
	admitDepth int           // WithAdmission accept-queue depth
	aging      time.Duration // WithAging promotion threshold (<= 0: no aging)

	quotaRPS   float64 // WithQuota per-client rate (<= 0: quotas off)
	quotaBurst int     // WithQuota per-client burst

	latMu sync.Mutex
	lat   map[string]*latRing // per-dataset /v1/query latency rings

	gateMu sync.Mutex
	gates  map[string]*gate // per-dataset admission gates (lazily created)

	quotaMu      sync.Mutex
	quotaBuckets map[string]*tokenBucket // per-client quota state

	httpMu  sync.Mutex
	httpSrv *http.Server
	closed  bool // Shutdown was called; Serve must not (re)start

	// hooks tracks in-flight mutation-hook goroutines so Shutdown can wait
	// for them: an acknowledged mutation's write-behind (-resnapshot) must
	// not be lost to a race with process exit. Spawns are gated on
	// `closed` under httpMu (see spawnHook), so hooks.Add can never race
	// hooks.Wait — the misuse the WaitGroup contract forbids.
	hooks sync.WaitGroup

	requests atomic.Int64 // all requests routed to a handler
	errors   atomic.Int64 // requests answered with a 4xx/5xx status

	// Server-level admission counters, per declared tier. Unlike the
	// per-gate counters these survive dataset detach/re-attach and
	// version swaps, so scrapers see monotonic counts (same contract as
	// the cumulative engine counters).
	admitted      tierCounts // requests granted execution capacity
	shedQueueFull tierCounts // requests rejected 429: accept queue full / evicted
	shedDeadline  tierCounts // queued requests dropped 503: deadline unmeetable

	shedQuota atomic.Int64 // requests rejected 429: client over rate quota
}

// Option configures a Server.
type Option func(*Server)

// WithRequestTimeout bounds each query/batch request: when the deadline
// passes, the computation is cancelled inside the algorithm loops and the
// request fails with 504. Default 30s; d <= 0 disables the bound.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) { s.timeout = d }
}

// WithMaxBatch caps the number of focals accepted by one /v1/batch
// request (default 1024).
func WithMaxBatch(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxBatch = n
		}
	}
}

// WithLogger routes request-failure logging to l (default: the standard
// logger; nil silences logging).
func WithLogger(l *log.Logger) Option {
	return func(s *Server) { s.logger = l }
}

// WithSnapshotLoader enables the dataset admin endpoints — POST
// /v1/datasets (attach) and DELETE /v1/datasets/{name} (detach): load
// builds an engine from an index-snapshot file path (typically
// repro.LoadSnapshot plus the deployment's engine options). Without a
// loader both endpoints answer 501, so runtime mutation of the served
// dataset set is strictly opt-in.
func WithSnapshotLoader(load func(path string) (*repro.Engine, error)) Option {
	return func(s *Server) { s.loader = load }
}

// WithMaxMutationOps caps the ops accepted by one POST
// /v1/datasets/{name}/mutate request (default 4096).
func WithMaxMutationOps(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxOps = n
		}
	}
}

// WithMutationHook registers a callback invoked after every successful
// dataset mutation, with the dataset's name, its new engine and its new
// version counter. The hook runs on its own goroutine (the mutate request
// does not wait for it); maxrankd uses it for the -resnapshot
// write-behind. A nil hook (the default) disables the callback.
func WithMutationHook(hook func(name string, eng *repro.Engine, version uint64)) Option {
	return func(s *Server) { s.mutateHook = hook }
}

// MutationRecord is one dataset mutation as handed to a MutationLog:
// the op batch plus the identity of the engine version it applied to
// (version counter and content fingerprint) and the fingerprint of the
// successor it produced. The fingerprints are what make a logged batch
// replayable-with-proof: replay applies it only to a dataset whose
// fingerprint matches the base, and verifies the result matches the new.
type MutationRecord struct {
	BaseVersion     uint64
	BaseFingerprint string
	NewFingerprint  string
	Ops             []repro.Op
}

// MutationLogStats describes a dataset's mutation-log extent for the
// stats surfaces.
type MutationLogStats struct {
	Records        int64
	Bytes          int64
	LastCompaction time.Time
}

// MutationLog is the durability hook of the mutate endpoint. When set
// (WithMutationLog), the handler appends each batch BEFORE the version
// swap that acknowledges it — ack-after-append — so an acknowledged
// mutation is exactly as durable as the log's sync policy promises, and
// an Append error fails the request with the dataset unchanged. maxrankd
// backs this with one internal/wal log per dataset.
type MutationLog interface {
	// Append durably records one mutation of the named dataset. An error
	// aborts the mutation.
	Append(dataset string, rec MutationRecord) error
	// Stats reports the named dataset's log extent; ok is false when the
	// dataset has no log (e.g. no mutation has ever reached it).
	Stats(dataset string) (MutationLogStats, bool)
}

// WithMutationLog wires a write-ahead log into the mutate path; see
// MutationLog. A nil log (the default) keeps mutations memory-only.
func WithMutationLog(log MutationLog) Option {
	return func(s *Server) { s.mutLog = log }
}

// New builds a Server over one engine, registered under the name
// "default". It is the single-dataset convenience constructor; see
// NewMulti for serving several datasets.
func New(eng *repro.Engine, opts ...Option) (*Server, error) {
	if eng == nil {
		return nil, fmt.Errorf("server: nil engine")
	}
	reg := NewRegistry()
	if err := reg.Add(DefaultDataset, eng); err != nil {
		return nil, err
	}
	return NewMulti(reg, opts...)
}

// NewMulti builds a Server over a registry of named engines. The registry
// may start empty (datasets can be attached later through the admin
// endpoint) and may be shared with code that adds or removes datasets out
// of band.
func NewMulti(reg *Registry, opts ...Option) (*Server, error) {
	if reg == nil {
		return nil, fmt.Errorf("server: nil registry")
	}
	s := &Server{
		reg:          reg,
		timeout:      30 * time.Second,
		maxBatch:     1024,
		maxOps:       4096,
		maxBody:      1 << 20,
		aging:        5 * time.Second,
		logger:       log.Default(),
		start:        time.Now(),
		lat:          make(map[string]*latRing),
		gates:        make(map[string]*gate),
		quotaBuckets: make(map[string]*tokenBucket),
	}
	for _, o := range opts {
		o(s)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	s.mux.HandleFunc("POST /v1/datasets", s.handleAttachDataset)
	s.mux.HandleFunc("DELETE /v1/datasets/{name}", s.handleDetachDataset)
	s.mux.HandleFunc("POST /v1/datasets/{name}/mutate", s.handleMutateDataset)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	publishExpvar(s)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// Engine returns the engine unqualified requests resolve to (the sole
// dataset, or the one named "default"), or nil when no such engine exists.
// Multi-dataset callers should use Registry instead.
func (s *Server) Engine() *repro.Engine {
	eng, _, release, err := s.reg.resolve("")
	if err != nil {
		return nil
	}
	release()
	return eng
}

// Registry returns the server's dataset registry.
func (s *Server) Registry() *Registry { return s.reg }

// ListenAndServe serves on addr until Shutdown (or a listener error). It
// blocks; on graceful shutdown it returns nil rather than
// http.ErrServerClosed.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve serves on an existing listener until Shutdown. It blocks; on
// graceful shutdown it returns nil rather than http.ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.httpMu.Lock()
	if s.closed {
		// Shutdown already ran (possibly before Serve was reached — e.g. a
		// SIGTERM racing process start). Behave like a completed graceful
		// shutdown instead of serving a server that can no longer be
		// stopped.
		s.httpMu.Unlock()
		ln.Close()
		return nil
	}
	if s.httpSrv != nil {
		s.httpMu.Unlock()
		return fmt.Errorf("server: already serving")
	}
	srv := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.httpSrv = srv
	s.httpMu.Unlock()
	if err := srv.Serve(ln); err != http.ErrServerClosed {
		return err
	}
	return nil
}

// Shutdown gracefully stops a Serve/ListenAndServe in progress: the
// listener closes immediately and in-flight requests — and any mutation
// hooks still running (the -resnapshot write-behind) — get until ctx's
// deadline to finish. Calling Shutdown before Serve is safe and makes a
// later Serve return immediately, so a signal that lands during process
// start cannot leave an unstoppable server behind.
func (s *Server) Shutdown(ctx context.Context) error {
	s.httpMu.Lock()
	s.closed = true
	srv := s.httpSrv
	s.httpMu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	if werr := s.waitHooks(ctx); err == nil {
		err = werr
	}
	return err
}

// spawnHook runs fn on a tracked goroutine — unless Shutdown has begun,
// in which case fn runs inline on the handler's goroutine: the handler is
// itself being drained by http.Server.Shutdown, so the hook still cannot
// be lost, and no hooks.Add happens concurrently with waitHooks' Wait.
func (s *Server) spawnHook(fn func()) {
	s.httpMu.Lock()
	if s.closed {
		s.httpMu.Unlock()
		fn()
		return
	}
	s.hooks.Add(1)
	s.httpMu.Unlock()
	go func() {
		defer s.hooks.Done()
		fn()
	}()
}

// waitHooks blocks until every spawned mutation hook returned or ctx
// expired (abandoned hooks are reported, not awaited forever). It runs
// only after `closed` is set, so no new hooks can be added while it
// waits.
func (s *Server) waitHooks(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.hooks.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: mutation hooks still running at shutdown: %w", ctx.Err())
	}
}

// walStats converts the mutation log's view of a dataset into the stats
// shape, or nil when there is no log (or none for this dataset yet).
func (s *Server) walStats(name string) *WALStats {
	if s.mutLog == nil {
		return nil
	}
	st, ok := s.mutLog.Stats(name)
	if !ok {
		return nil
	}
	ws := &WALStats{Records: st.Records, Bytes: st.Bytes}
	if !st.LastCompaction.IsZero() {
		t := st.LastCompaction
		ws.LastCompaction = &t
	}
	return ws
}

// logf logs through the configured logger, if any.
func (s *Server) logf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}

// expvar integration. The expvar registry is global and rejects duplicate
// names, so the package publishes one "maxrank" map whose values follow
// the most recently constructed Server (in production there is exactly
// one; tests may build many).
var (
	expvarOnce   sync.Once
	expvarTarget atomic.Pointer[Server]
)

func publishExpvar(s *Server) {
	expvarTarget.Store(s)
	expvarOnce.Do(func() {
		m := new(expvar.Map).Init()
		counter := func(get func(*Server) int64) expvar.Func {
			return func() any {
				if t := expvarTarget.Load(); t != nil {
					return get(t)
				}
				return int64(0)
			}
		}
		// Engine counters sum across every registered dataset.
		sum := func(get func(repro.EngineStats) int64) func(*Server) int64 {
			return func(t *Server) int64 {
				var total int64
				// Cumulative per-entry stats keep the sums monotonic
				// across dataset mutations (a swapped-in engine starts
				// at zero; retired versions' counts carry forward).
				t.reg.forEach(func(_ string, _ *repro.Engine, _ uint64, stats repro.EngineStats) {
					total += get(stats)
				})
				return total
			}
		}
		m.Set("requests", counter(func(t *Server) int64 { return t.requests.Load() }))
		m.Set("errors", counter(func(t *Server) int64 { return t.errors.Load() }))
		m.Set("datasets", counter(func(t *Server) int64 { return int64(t.reg.Len()) }))
		m.Set("queries", counter(sum(func(s repro.EngineStats) int64 { return s.Queries })))
		m.Set("cache_hits", counter(sum(func(s repro.EngineStats) int64 { return s.CacheHits })))
		m.Set("cache_misses", counter(sum(func(s repro.EngineStats) int64 { return s.CacheMisses })))
		m.Set("cache_evictions", counter(sum(func(s repro.EngineStats) int64 { return s.CacheEvictions })))
		m.Set("cache_size", counter(sum(func(s repro.EngineStats) int64 { return int64(s.CacheSize) })))
		m.Set("admitted", counter(func(t *Server) int64 { return t.admitted.Load() }))
		m.Set("shed_queue_full", counter(func(t *Server) int64 { return t.shedQueueFull.Load() }))
		m.Set("shed_deadline", counter(func(t *Server) int64 { return t.shedDeadline.Load() }))
		m.Set("shed_quota", counter(func(t *Server) int64 { return t.shedQuota.Load() }))
		// Per-tier admission totals (admitted_interactive, shed_queue_full_bulk, ...).
		for tier := 0; tier < numTiers; tier++ {
			tier := tier
			m.Set("admitted_"+apiv1.TierName(tier), counter(func(t *Server) int64 { return t.admitted[tier].Load() }))
			m.Set("shed_queue_full_"+apiv1.TierName(tier), counter(func(t *Server) int64 { return t.shedQueueFull[tier].Load() }))
			m.Set("shed_deadline_"+apiv1.TierName(tier), counter(func(t *Server) int64 { return t.shedDeadline[tier].Load() }))
		}
		// Mutation-log extent, summed across datasets (0 without a log).
		walSum := func(get func(MutationLogStats) int64) func(*Server) int64 {
			return func(t *Server) int64 {
				if t.mutLog == nil {
					return 0
				}
				var total int64
				t.reg.forEach(func(name string, _ *repro.Engine, _ uint64, _ repro.EngineStats) {
					if st, ok := t.mutLog.Stats(name); ok {
						total += get(st)
					}
				})
				return total
			}
		}
		m.Set("wal_records", counter(walSum(func(st MutationLogStats) int64 { return st.Records })))
		m.Set("wal_bytes", counter(walSum(func(st MutationLogStats) int64 { return st.Bytes })))
		// Storage footprint, summed across datasets: how much of the
		// serving state is zero-copy mapped file versus process heap.
		storageSum := func(get func(repro.StorageStats) int64) func(*Server) int64 {
			return func(t *Server) int64 {
				var total int64
				t.reg.forEach(func(_ string, eng *repro.Engine, _ uint64, _ repro.EngineStats) {
					total += get(eng.Dataset().Storage())
				})
				return total
			}
		}
		m.Set("mapped_bytes", counter(storageSum(func(st repro.StorageStats) int64 { return st.MappedBytes })))
		m.Set("heap_bytes", counter(storageSum(func(st repro.StorageStats) int64 { return st.HeapBytes })))
		m.Set("datasets_mmap", counter(storageSum(func(st repro.StorageStats) int64 {
			if st.Mode == repro.StorageMmap {
				return 1
			}
			return 0
		})))
		expvar.Publish("maxrank", m)
	})
}
