package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// newAdmissionServer builds a server whose queries are slowed by a
// simulated page latency (so overload is reachable with a handful of
// concurrent requests) and bounded by WithAdmission.
func newAdmissionServer(t testing.TB, pageLatency time.Duration, opts ...Option) *Server {
	t.Helper()
	ds, err := repro.GenerateDataset("IND", 400, 3, 42, repro.WithPageLatency(pageLatency))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := repro.NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, append([]Option{WithLogger(nil)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// checkRetryAfter asserts a shed response advertises a parseable,
// positive, whole-seconds Retry-After.
func checkRetryAfter(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	ra := rec.Header().Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 || secs > 60 {
		t.Errorf("status %d carries Retry-After %q, want integer seconds in [1, 60] (err=%v)",
			rec.Code, ra, err)
	}
}

// TestAdmissionOverloadProperty is the overload property test: offered
// load at 4x the gate's total capacity (slots + queue), everything fired
// concurrently against a paged-latency engine. Invariants, checked after
// the storm drains:
//
//   - concurrently executing requests never exceed max-inflight
//     (the gate's high-water mark);
//   - every response is 200, 429 or 503 — no admitted request is
//     abandoned, every shed is a proper early rejection;
//   - every 429/503 carries a parseable Retry-After;
//   - admitted + shed_queue_full + shed_deadline equals the offered
//     load (no request is double-counted or lost), at the gate, the
//     server totals and the /v1/stats wiring alike.
//
// Run under -race this is also the admission-path data-race test.
func TestAdmissionOverloadProperty(t *testing.T) {
	const (
		limit = 4
		depth = 8
		n     = 4 * (limit + depth) // 4x total capacity
	)
	// The request timeout is generous: deadline timers never fire, so
	// sheds are pure queue-full 429s and the accounting below is exact.
	srv := newAdmissionServer(t, 200*time.Microsecond,
		WithAdmission(limit, depth), WithRequestTimeout(30*time.Second))

	var (
		wg       sync.WaitGroup
		ok200    atomic.Int64
		shed429  atomic.Int64
		shed503  atomic.Int64
		other    atomic.Int64
		headerMu sync.Mutex
		badShed  []string
	)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			focal := i % 100
			body, _ := json.Marshal(QueryRequest{Focal: &focal, Tau: 1})
			req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(string(body)))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			<-start
			srv.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK:
				ok200.Add(1)
				var resp QueryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.KStar < 1 {
					t.Errorf("admitted request %d returned unusable body: %v %s", i, err, rec.Body.Bytes())
				}
			case http.StatusTooManyRequests:
				shed429.Add(1)
			case http.StatusServiceUnavailable:
				shed503.Add(1)
			default:
				other.Add(1)
				t.Errorf("request %d: status %d, want 200/429/503: %s", i, rec.Code, rec.Body.Bytes())
			}
			if rec.Code == http.StatusTooManyRequests || rec.Code == http.StatusServiceUnavailable {
				if secs, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || secs < 1 || secs > 60 {
					headerMu.Lock()
					badShed = append(badShed, rec.Header().Get("Retry-After"))
					headerMu.Unlock()
				}
			}
		}(i)
	}
	close(start)
	wg.Wait()

	if len(badShed) > 0 {
		t.Errorf("shed responses with unparseable Retry-After: %q", badShed)
	}
	if got := ok200.Load() + shed429.Load() + shed503.Load(); got != n {
		t.Errorf("responses: %d ok + %d 429 + %d 503 = %d, want %d (plus %d unexpected statuses)",
			ok200.Load(), shed429.Load(), shed503.Load(), got, n, other.Load())
	}
	if shed429.Load() == 0 {
		t.Errorf("4x overload produced no queue-full sheds (ok=%d): gate not binding", ok200.Load())
	}

	g := srv.gate(DefaultDataset)
	g.mu.Lock()
	hwm, inflight, queued := g.hwm, g.inflight, g.queued
	g.mu.Unlock()
	if hwm > limit {
		t.Errorf("in-flight high-water mark %d exceeds max-inflight %d", hwm, limit)
	}
	if inflight != 0 || queued != 0 {
		t.Errorf("after drain: inflight=%d queued=%d, want 0/0", inflight, queued)
	}
	if got := g.admitted.Load(); got != ok200.Load() {
		t.Errorf("gate admitted %d, but %d requests got 200", got, ok200.Load())
	}
	if sum := g.admitted.Load() + g.shedQueueFull.Load() + g.shedDeadline.Load(); sum != n {
		t.Errorf("gate counters sum to %d (admitted=%d queue_full=%d deadline=%d), want offered load %d",
			sum, g.admitted.Load(), g.shedQueueFull.Load(), g.shedDeadline.Load(), n)
	}

	// The same invariants through the public stats wiring.
	code, body := get(t, srv, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d: %s", code, body)
	}
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	adm := stats.Datasets[DefaultDataset].Admission
	if adm == nil {
		t.Fatal("stats carry no admission block for the gated dataset")
	}
	if adm.MaxInflight != limit || adm.QueueDepth != depth {
		t.Errorf("stats echo bounds %d/%d, want %d/%d", adm.MaxInflight, adm.QueueDepth, limit, depth)
	}
	if adm.Admitted+adm.ShedQueueFull+adm.ShedDeadline != n {
		t.Errorf("stats counters sum to %d, want %d", adm.Admitted+adm.ShedQueueFull+adm.ShedDeadline, n)
	}
	if stats.Server.Admitted != adm.Admitted ||
		stats.Server.ShedQueueFull != adm.ShedQueueFull ||
		stats.Server.ShedDeadline != adm.ShedDeadline {
		t.Errorf("server totals %d/%d/%d diverge from the sole gate's %d/%d/%d",
			stats.Server.Admitted, stats.Server.ShedQueueFull, stats.Server.ShedDeadline,
			adm.Admitted, adm.ShedQueueFull, adm.ShedDeadline)
	}
}

// TestAdmissionDeadlineShed pins the 503 path deterministically: the only
// execution slot is held by the test itself, so a queued request MUST
// deadline-shed once its budget is spent, and requests beyond the queue
// depth MUST be rejected 429 immediately.
func TestAdmissionDeadlineShed(t *testing.T) {
	// The 2s request timeout is generous because -race on a loaded CI box
	// makes even the priming queries slow; the shed logic being tested is
	// timeout-scale invariant.
	srv := newAdmissionServer(t, 20*time.Microsecond,
		WithAdmission(1, 2), WithRequestTimeout(2*time.Second))

	// Prime the latency ring so the deadline shedder has a p50 to plan
	// with (and Retry-After a drain estimate).
	for i := 0; i < 3; i++ {
		focal := i
		if code, body := post(t, srv, "/v1/query", QueryRequest{Focal: &focal, Tau: 1}); code != http.StatusOK {
			t.Fatalf("priming query = %d: %s", code, body)
		}
	}

	// Occupy the only slot, bypassing HTTP so it is held for exactly as
	// long as this test wants.
	release, err := srv.admit(context.Background(), DefaultDataset, tierNormal)
	if err != nil {
		t.Fatalf("occupier admit: %v", err)
	}

	// A queued request cannot get the slot; its shed timer fires within
	// the 300ms request timeout and it reports 503 + Retry-After.
	focal := 50
	startShed := time.Now()
	body, _ := json.Marshal(QueryRequest{Focal: &focal, Tau: 1})
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued request with held slot = %d, want 503: %s", rec.Code, rec.Body.Bytes())
	}
	checkRetryAfter(t, rec)
	if waited := time.Since(startShed); waited > 5*time.Second {
		t.Errorf("deadline shed took %v, want within the 2s request deadline plus margin", waited)
	}
	if g := srv.gate(DefaultDataset); g.shedDeadline.Load() == 0 {
		t.Error("503 response did not count as a deadline shed")
	}

	// Fill the queue (depth 2) with two parked waiters, then a third
	// request must bounce 429 without waiting.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := 60 + i
			b, _ := json.Marshal(QueryRequest{Focal: &f, Tau: 1})
			r := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(string(b)))
			r.Header.Set("Content-Type", "application/json")
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, r)
			if w.Code != http.StatusServiceUnavailable {
				t.Errorf("parked waiter %d = %d, want eventual 503", i, w.Code)
			}
		}(i)
	}
	g := srv.gate(DefaultDataset)
	waitUntil(t, time.Second, func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.queued == 2
	})
	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("request past a full queue = %d, want 429: %s", rec.Code, rec.Body.Bytes())
	}
	checkRetryAfter(t, rec)
	wg.Wait()

	// Releasing the occupier restores service.
	release()
	if code, b := post(t, srv, "/v1/query", QueryRequest{Focal: &focal, Tau: 1}); code != http.StatusOK {
		t.Fatalf("query after release = %d: %s", code, b)
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionBatchGated asserts /v1/batch rides the same gate as
// /v1/query: with the only slot held, a batch bounces (503 via its
// deadline, or 429 once the queue is full) instead of executing.
func TestAdmissionBatchGated(t *testing.T) {
	// Generous timeout: with queue depth 0 the rejection path never
	// waits, and the deadline only bounds the post-release success path
	// (slow under -race).
	srv := newAdmissionServer(t, 20*time.Microsecond,
		WithAdmission(1, 0), WithRequestTimeout(20*time.Second))
	release, err := srv.admit(context.Background(), DefaultDataset, tierNormal)
	if err != nil {
		t.Fatalf("occupier admit: %v", err)
	}
	code, body := post(t, srv, "/v1/batch", BatchRequest{Focals: []int{1, 2}})
	if code != http.StatusTooManyRequests {
		t.Fatalf("batch with zero queue depth and held slot = %d, want 429: %s", code, body)
	}
	release()
	if code, body = post(t, srv, "/v1/batch", BatchRequest{Focals: []int{1, 2}}); code != http.StatusOK {
		t.Fatalf("batch after release = %d: %s", code, body)
	}
}

// TestAdmissionStatsAcrossLifecycle extends the PR 5 monotonic-counter
// contract to the shedding counters: concurrent /v1/stats scrapes during
// dataset detach and mutation version swaps must never observe the
// server-level admitted/shed totals move backwards (and must not trip
// -race on the gate or latency ring teardown).
func TestAdmissionStatsAcrossLifecycle(t *testing.T) {
	srv := newAdmissionServer(t, 100*time.Microsecond,
		WithAdmission(2, 4), WithRequestTimeout(5*time.Second),
		// The detach endpoint is gated on the admin loader; the loader
		// itself is never invoked (re-attach goes through the registry).
		WithSnapshotLoader(func(path string) (*repro.Engine, error) {
			return nil, fmt.Errorf("unused")
		}))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// On any failure path: stop the workers, then wait for them, so no
	// goroutine outlives the test.
	defer wg.Wait()
	defer close(stop)

	// Query workers: enough concurrency that the gate admits and sheds
	// while the lifecycle churns underneath.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				focal := (w*37 + i) % 100
				b, _ := json.Marshal(QueryRequest{Focal: &focal, Tau: 1})
				r := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(string(b)))
				r.Header.Set("Content-Type", "application/json")
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, r)
				// 200, shed, 404 during the detach window, or 504 (an
				// admitted query running past its deadline under -race
				// slowdown) are all legitimate; anything else is a bug.
				switch rec.Code {
				case http.StatusOK, http.StatusTooManyRequests,
					http.StatusServiceUnavailable, http.StatusNotFound,
					http.StatusGatewayTimeout:
				default:
					t.Errorf("query during lifecycle churn: status %d: %s", rec.Code, rec.Body.Bytes())
					return
				}
			}
		}(w)
	}

	// Stats scraper: the server-level admission totals are cumulative and
	// must survive both detach (gate dropped) and mutate (version swap).
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastAdmitted, lastShed int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			code, body := get(t, srv, "/v1/stats")
			if code != http.StatusOK {
				t.Errorf("stats scrape: %d: %s", code, body)
				return
			}
			var stats StatsResponse
			if err := json.Unmarshal(body, &stats); err != nil {
				t.Errorf("stats scrape: %v", err)
				return
			}
			shed := stats.Server.ShedQueueFull + stats.Server.ShedDeadline
			if stats.Server.Admitted < lastAdmitted || shed < lastShed {
				t.Errorf("server admission totals moved backwards: admitted %d -> %d, shed %d -> %d",
					lastAdmitted, stats.Server.Admitted, lastShed, shed)
				return
			}
			lastAdmitted, lastShed = stats.Server.Admitted, shed
		}
	}()

	// Lifecycle churn: alternate mutation swaps with detach/re-attach of
	// the default dataset.
	ds, err := repro.GenerateDataset("IND", 400, 3, 42, repro.WithPageLatency(100*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		del := 200 + round
		code, body := post(t, srv, "/v1/datasets/default/mutate", MutateRequest{Ops: []MutateOp{
			{Delete: &del},
			{Insert: []float64{0.5, 0.4, 0.3}},
		}})
		if code != http.StatusOK {
			t.Fatalf("mutate round %d: %d: %s", round, code, body)
		}
		if round%2 == 1 {
			req := httptest.NewRequest(http.MethodDelete, "/v1/datasets/default", nil)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			// 504 means the name is detached from routing but stragglers
			// outlived the drain window (Registry.Remove removes the entry
			// up front) — under -race slowdown that is expected; re-attach
			// is valid either way.
			if rec.Code != http.StatusOK && rec.Code != http.StatusGatewayTimeout {
				t.Fatalf("detach round %d: %d: %s", round, rec.Code, rec.Body.Bytes())
			}
			eng, err := repro.NewEngine(ds)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Registry().Add(DefaultDataset, eng); err != nil {
				t.Fatalf("re-attach round %d: %v", round, err)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}

	// After churn the cumulative totals must reflect real traffic. (The
	// deferred close(stop)/wg.Wait pair retires the workers; the final
	// scrape below tolerates their tail-end traffic because the totals
	// only grow.)
	code, body := get(t, srv, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("final stats: %d: %s", code, body)
	}
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Server.Admitted == 0 {
		t.Error("no admissions recorded across the lifecycle churn")
	}
	// Admission counts requests: the per-class cost model and the
	// cost-unit occupancy fields are gone from the wire.
	for _, key := range []string{"cost_model", "inflight_cost_units", "queued_cost_units"} {
		if strings.Contains(string(body), key) {
			t.Errorf("/v1/stats still carries %q: %s", key, body)
		}
	}
}

// TestAdmissionDisabledIsTransparent pins the default: without
// WithAdmission, admit is free, stats carry no admission block, and the
// server totals stay zero.
func TestAdmissionDisabledIsTransparent(t *testing.T) {
	srv := newTestServer(t)
	if srv.AdmissionEnabled() {
		t.Fatal("admission reported enabled without WithAdmission")
	}
	release, err := srv.admit(context.Background(), DefaultDataset, tierNormal)
	if err != nil {
		t.Fatalf("admit with admission off: %v", err)
	}
	release()
	focal := 5
	if code, body := post(t, srv, "/v1/query", QueryRequest{Focal: &focal, Tau: 1}); code != http.StatusOK {
		t.Fatalf("query = %d: %s", code, body)
	}
	code, body := get(t, srv, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Datasets[DefaultDataset].Admission != nil {
		t.Error("stats carry an admission block with admission disabled")
	}
	if stats.Server.Admitted != 0 || stats.Server.ShedQueueFull != 0 || stats.Server.ShedDeadline != 0 {
		t.Error("admission counters nonzero with admission disabled")
	}
}

// TestAdmissionBatchHoldsOneSlot: a /v1/batch holds one admission slot,
// however many focals it carries and however long batches have taken.
// The gate is warmed with batches and queries so every latency ring has
// samples; then, with a slow batch executing on a 2-slot gate, a single
// /v1/query must run beside it rather than queue behind it.
func TestAdmissionBatchHoldsOneSlot(t *testing.T) {
	srv := newAdmissionServer(t, 200*time.Microsecond,
		WithAdmission(2, 4), WithRequestTimeout(30*time.Second))
	// The warm-up batches have the slow batch's shape (11 to 100 focals),
	// so any price learned from batch latencies applies to it.
	focals := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = (i * 7) % 400
		}
		return out
	}
	for i := 0; i < 8; i++ {
		focal := i
		if code, body := post(t, srv, "/v1/query", QueryRequest{Focal: &focal}); code != http.StatusOK {
			t.Fatalf("warm-up query %d = %d: %s", i, code, body)
		}
		if code, body := post(t, srv, "/v1/batch", BatchRequest{Focals: focals(16)}); code != http.StatusOK {
			t.Fatalf("warm-up batch %d = %d: %s", i, code, body)
		}
	}

	g := srv.gate(DefaultDataset)
	inflight := func() int {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.inflight
	}
	batchDone := make(chan struct{})
	go func() {
		defer close(batchDone)
		if code, body := post(t, srv, "/v1/batch", BatchRequest{Focals: focals(100)}); code != http.StatusOK {
			t.Errorf("slow batch = %d: %s", code, body)
		}
	}()
	waitUntil(t, 5*time.Second, func() bool { return inflight() == 1 })

	focal := 3
	if code, body := post(t, srv, "/v1/query", QueryRequest{Focal: &focal}); code != http.StatusOK {
		t.Fatalf("query beside the batch = %d: %s", code, body)
	}
	select {
	case <-batchDone:
		t.Fatal("the batch finished before the query: the query queued behind it")
	default:
	}
	if n := inflight(); n != 1 {
		t.Errorf("after the query, %d requests hold slots; want the batch's 1", n)
	}
	<-batchDone
}
