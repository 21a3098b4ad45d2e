package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/server/apiv1"
)

// postWithHeaders is post() plus arbitrary headers (the quota tests need
// X-Client-ID).
func postWithHeaders(t testing.TB, h http.Handler, path string, body any, hdr map[string]string) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(raw)))
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// TestPriorityEvictionOrder pins the queue-full displacement rule
// deterministically, bypassing HTTP: with the only slot held and the
// queue full of lower-tier waiters, an interactive arrival evicts the
// newest bulk waiter (429), and once capacity frees, dispatch grants
// strictly best-tier-first.
func TestPriorityEvictionOrder(t *testing.T) {
	srv := newAdmissionServer(t, 20*time.Microsecond,
		WithAdmission(1, 2), WithAging(0), WithRequestTimeout(10*time.Second))

	hold, err := srv.admit(context.Background(), DefaultDataset, tierNormal)
	if err != nil {
		t.Fatalf("occupier admit: %v", err)
	}

	type outcome struct {
		tier int
		err  error
		at   time.Time
	}
	results := make(chan outcome, 3)
	wait := func(tier int) {
		release, err := srv.admit(context.Background(), DefaultDataset, tier)
		results <- outcome{tier: tier, err: err, at: time.Now()}
		if err == nil {
			time.Sleep(5 * time.Millisecond) // hold briefly so grant order is observable
			release()
		}
	}
	g := srv.gate(DefaultDataset)
	queued := func(n int) {
		waitUntil(t, 5*time.Second, func() bool {
			g.mu.Lock()
			defer g.mu.Unlock()
			return g.queued == n
		})
	}

	go wait(tierBulk)
	queued(1)
	go wait(tierNormal)
	queued(2)
	// Queue full at depth 2. The interactive arrival must displace the
	// bulk waiter rather than be rejected.
	go wait(tierInteractive)

	first := <-results
	if first.tier != tierBulk || first.err == nil {
		t.Fatalf("first outcome: tier %d err %v, want the bulk waiter evicted", first.tier, first.err)
	}
	var shed *shedError
	if !asShed(first.err, &shed) || shed.status != http.StatusTooManyRequests {
		t.Fatalf("bulk eviction error = %v, want a 429 shedError", first.err)
	}
	if g.shedQueueFull[tierBulk].Load() != 1 {
		t.Errorf("bulk shed_queue_full = %d, want 1", g.shedQueueFull[tierBulk].Load())
	}

	hold()
	second := <-results
	third := <-results
	if second.err != nil || third.err != nil {
		t.Fatalf("surviving waiters errored: %v / %v", second.err, third.err)
	}
	if second.tier != tierInteractive || third.tier != tierNormal {
		t.Errorf("grant order %d then %d, want interactive (%d) before normal (%d)",
			second.tier, third.tier, tierInteractive, tierNormal)
	}
}

// asShed is errors.As for *shedError without importing errors twice.
func asShed(err error, target **shedError) bool {
	se, ok := err.(*shedError)
	if ok {
		*target = se
	}
	return ok
}

// TestPriorityAgingProperty is the starvation-freedom property test: under
// a sustained stream of interactive traffic saturating a 1-slot gate, a
// single bulk request still completes, because aging promotes it tier by
// tier instead of letting strict priority starve it forever. Run under
// -race this also exercises the promotion timers against dispatch.
func TestPriorityAgingProperty(t *testing.T) {
	srv := newAdmissionServer(t, 200*time.Microsecond,
		WithAdmission(1, 8), WithAging(150*time.Millisecond), WithRequestTimeout(20*time.Second))

	const feeders = 3
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var interactiveOK atomic.Int64
	for i := 0; i < feeders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				focal := (i*97 + n) % 100
				code, _ := post(t, srv, "/v1/query", QueryRequest{Focal: &focal, Tau: 1, Priority: "interactive"})
				if code == http.StatusOK {
					interactiveOK.Add(1)
				}
			}
		}(i)
	}

	// Give the feeders a head start so the gate is saturated before the
	// bulk request arrives.
	waitUntil(t, 5*time.Second, func() bool { return interactiveOK.Load() >= 5 })

	bulkStart := time.Now()
	focal := 7
	code, body := post(t, srv, "/v1/query", QueryRequest{Focal: &focal, Tau: 1, Priority: "bulk"})
	bulkLatency := time.Since(bulkStart)
	close(stop)
	wg.Wait()

	if code != http.StatusOK {
		t.Fatalf("bulk request under interactive pressure = %d, want 200: %s", code, body)
	}
	// The aging bound: two promotions (bulk → normal → interactive) at
	// 150ms each, plus a few queued interactive services ahead of it.
	// 10s is an order of magnitude of slack for -race on a loaded box —
	// the point is "bounded", not "fast".
	if bulkLatency > 10*time.Second {
		t.Errorf("bulk request took %v under interactive pressure: aging did not bound starvation", bulkLatency)
	}

	// Per-tier accounting reached the stats surface.
	code, raw := get(t, srv, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d", code)
	}
	var stats StatsResponse
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	adm := stats.Datasets[DefaultDataset].Admission
	if adm == nil {
		t.Fatal("no admission stats for gated dataset")
	}
	if adm.Tiers["interactive"].Admitted == 0 {
		t.Error("per-tier stats: no interactive admissions recorded")
	}
	if adm.Tiers["bulk"].Admitted == 0 {
		t.Error("per-tier stats: the completed bulk request was not billed to its tier")
	}
	if got := stats.Server.AdmissionTiers["bulk"].Admitted; got == 0 {
		t.Error("server totals: no bulk admissions recorded")
	}
}

// TestPriorityAnswerIdentical: the scheduler may reorder execution but
// must never change an answer — the same focal yields a byte-identical
// result set at every priority.
func TestPriorityAnswerIdentical(t *testing.T) {
	srv := newAdmissionServer(t, 0, WithAdmission(2, 4))
	focal := 11
	var bodies []string
	for _, prio := range []string{"", "interactive", "normal", "bulk"} {
		code, body := post(t, srv, "/v1/query", QueryRequest{Focal: &focal, Tau: 2, Priority: apiv1.Priority(prio)})
		if code != http.StatusOK {
			t.Fatalf("priority %q: status %d: %s", prio, code, body)
		}
		var resp QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		resp.Stats.CPUMicros = 0 // timing varies; the answer must not
		resp.Cached = false      // later repeats may hit the result cache
		canon, _ := json.Marshal(resp)
		bodies = append(bodies, string(canon))
	}
	for i := 1; i < len(bodies); i++ {
		if bodies[i] != bodies[0] {
			t.Errorf("priority path %d changed the answer:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
}

// TestQuotaShedding: a client over its token bucket is rejected 429 with
// Retry-After before touching admission, other clients are unaffected,
// and the shed is counted.
func TestQuotaShedding(t *testing.T) {
	ds, err := repro.GenerateDataset("IND", 200, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := repro.NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	// 0.01 rps, burst 1: one request drains the bucket and the refill
	// (one token per 100s) is negligible for the test's lifetime, even
	// when -race slows each query to ~1s.
	srv, err := New(eng, WithLogger(nil), WithQuota(0.01, 1))
	if err != nil {
		t.Fatal(err)
	}
	focal := 3

	code, body := postWithHeaders(t, srv, "/v1/query", QueryRequest{Focal: &focal}, map[string]string{"X-Client-ID": "tenant-a"})
	if code != http.StatusOK {
		t.Fatalf("first tenant-a request = %d: %s", code, body)
	}
	raw, _ := json.Marshal(QueryRequest{Focal: &focal})
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(string(raw)))
	req.Header.Set("X-Client-ID", "tenant-a")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second tenant-a request = %d, want 429: %s", rec.Code, rec.Body.Bytes())
	}
	checkRetryAfter(t, rec)

	// A different client has its own bucket; the body's "client" field
	// identifies it when no header is set.
	code, body = post(t, srv, "/v1/query", QueryRequest{Focal: &focal, Client: "tenant-b"})
	if code != http.StatusOK {
		t.Fatalf("tenant-b request = %d, want 200 (own bucket): %s", code, body)
	}

	// The header wins over the body field: claiming to be tenant-c in the
	// body does not escape tenant-a's empty bucket.
	code, body = postWithHeaders(t, srv, "/v1/query", QueryRequest{Focal: &focal, Client: "tenant-c"}, map[string]string{"X-Client-ID": "tenant-a"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("tenant-a via header = %d, want 429 despite body client: %s", code, body)
	}

	// Anonymous requests share one bucket.
	if code, _ = post(t, srv, "/v1/query", QueryRequest{Focal: &focal}); code != http.StatusOK {
		t.Fatalf("first anonymous request = %d, want 200", code)
	}
	if code, _ = post(t, srv, "/v1/query", QueryRequest{Focal: &focal}); code != http.StatusTooManyRequests {
		t.Fatalf("second anonymous request = %d, want 429 (shared bucket)", code)
	}

	code, raw2 := get(t, srv, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d", code)
	}
	var stats StatsResponse
	if err := json.Unmarshal(raw2, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Server.ShedQuota < 3 {
		t.Errorf("shed_quota = %d, want >= 3", stats.Server.ShedQuota)
	}
}
