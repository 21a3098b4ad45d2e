package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro"
)

// newTestServer builds a server over a small deterministic dataset with a
// result cache.
func newTestServer(t testing.TB, opts ...Option) *Server {
	t.Helper()
	ds, err := repro.GenerateDataset("IND", 400, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := repro.NewEngine(ds, repro.WithCache(64))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, append([]Option{WithLogger(nil)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// post issues a JSON POST against the handler and returns status and body.
func post(t testing.TB, h http.Handler, path string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func get(t testing.TB, h http.Handler, path string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.Bytes()
}

func TestHealthz(t *testing.T) {
	srv := newTestServer(t)
	code, body := get(t, srv, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", code)
	}
	var m map[string]string
	if err := json.Unmarshal(body, &m); err != nil || m["status"] != "ok" {
		t.Fatalf("healthz body %q, want status ok (err=%v)", body, err)
	}
}

func TestQueryEndpoint(t *testing.T) {
	srv := newTestServer(t)
	focal := 7
	code, body := post(t, srv, "/v1/query", QueryRequest{Focal: &focal, Tau: 1, OutrankIDs: true})
	if code != http.StatusOK {
		t.Fatalf("POST /v1/query = %d: %s", code, body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.KStar < 1 || len(resp.Regions) == 0 || resp.TotalRegions != len(resp.Regions) {
		t.Fatalf("implausible response: %+v", resp)
	}
	if resp.Cached {
		t.Fatal("first query reported cached")
	}
	if resp.Stats.Algorithm != "AA" {
		t.Fatalf("Stats.Algorithm = %q, want AA (auto resolution)", resp.Stats.Algorithm)
	}
	for _, reg := range resp.Regions {
		if reg.Rank < resp.KStar || reg.Rank > resp.KStar+1 {
			t.Fatalf("region rank %d outside [k*, k*+tau] = [%d, %d]", reg.Rank, resp.KStar, resp.KStar+1)
		}
		if len(reg.OutrankIDs) != reg.Order {
			t.Fatalf("region order %d reports %d outranking records", reg.Order, len(reg.OutrankIDs))
		}
	}
}

// TestRepeatedQueryServedFromCache is the serving half of the acceptance
// criterion: the repeat is flagged cached, the hit counter increments, and
// repeated cached responses are byte-identical.
func TestRepeatedQueryServedFromCache(t *testing.T) {
	srv := newTestServer(t)
	focal := 3
	req := QueryRequest{Focal: &focal, Tau: 2}

	code, first := post(t, srv, "/v1/query", req)
	if code != http.StatusOK {
		t.Fatalf("first query = %d: %s", code, first)
	}
	code, second := post(t, srv, "/v1/query", req)
	if code != http.StatusOK {
		t.Fatalf("second query = %d: %s", code, second)
	}
	code, third := post(t, srv, "/v1/query", req)
	if code != http.StatusOK {
		t.Fatalf("third query = %d: %s", code, third)
	}

	var r2 QueryResponse
	if err := json.Unmarshal(second, &r2); err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("repeated query not served from cache")
	}
	if !bytes.Equal(second, third) {
		t.Fatalf("cached responses differ:\n%s\n%s", second, third)
	}
	// The first response differs only in the cached flag.
	want := bytes.Replace(second, []byte(`"cached":true`), []byte(`"cached":false`), 1)
	if !bytes.Equal(first, want) {
		t.Fatalf("first response differs from cached beyond the flag:\n%s\n%s", first, second)
	}

	var stats StatsResponse
	code, body := get(t, srv, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d", code)
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Engine.CacheHits != 2 || stats.Engine.CacheMisses != 1 {
		t.Fatalf("engine stats %+v, want 2 hits and 1 miss", stats.Engine)
	}
	if stats.Dataset.Records != 400 || stats.Dataset.Dim != 3 || stats.Dataset.Fingerprint == "" {
		t.Fatalf("dataset stats %+v", stats.Dataset)
	}
	if stats.Server.Requests < 4 {
		t.Fatalf("server stats %+v, want >= 4 requests", stats.Server)
	}
}

func TestWhatIfQuery(t *testing.T) {
	srv := newTestServer(t)
	req := QueryRequest{Point: []float64{0.9, 0.8, 0.85}}
	code, body := post(t, srv, "/v1/query", req)
	if code != http.StatusOK {
		t.Fatalf("what-if query = %d: %s", code, body)
	}
	code, second := post(t, srv, "/v1/query", req)
	if code != http.StatusOK {
		t.Fatalf("repeat what-if query = %d", code)
	}
	var resp QueryResponse
	if err := json.Unmarshal(second, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Fatal("repeated what-if query not cached")
	}
}

func TestBatchEndpoint(t *testing.T) {
	srv := newTestServer(t)
	code, body := post(t, srv, "/v1/batch", BatchRequest{Focals: []int{1, 2, 3}, MaxRegions: 2})
	if code != http.StatusOK {
		t.Fatalf("POST /v1/batch = %d: %s", code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("%d results, want 3", len(resp.Results))
	}
	for i, r := range resp.Results {
		if r.KStar < 1 || len(r.Regions) > 2 {
			t.Fatalf("result %d implausible: %+v", i, r)
		}
	}
	// The batch populated the cache: single queries now hit.
	focal := 2
	code, body = post(t, srv, "/v1/query", QueryRequest{Focal: &focal})
	if code != http.StatusOK {
		t.Fatalf("query after batch = %d", code)
	}
	var single QueryResponse
	if err := json.Unmarshal(body, &single); err != nil {
		t.Fatal(err)
	}
	if !single.Cached {
		t.Fatal("query after identical batch item missed the cache")
	}
}

func TestBadRequests(t *testing.T) {
	srv := newTestServer(t, WithMaxBatch(4))
	focal := 3
	cases := []struct {
		name string
		path string
		body any
	}{
		{"no focal", "/v1/query", QueryRequest{}},
		{"both focal and point", "/v1/query", QueryRequest{Focal: &focal, Point: []float64{0.1, 0.2, 0.3}}},
		{"focal out of range", "/v1/query", QueryRequest{Focal: ptr(10000)}},
		{"negative focal", "/v1/query", QueryRequest{Focal: ptr(-1)}},
		{"wrong point dim", "/v1/query", QueryRequest{Point: []float64{0.1}}},
		{"bad algorithm", "/v1/query", QueryRequest{Focal: &focal, Algorithm: "qp"}},
		{"negative tau", "/v1/query", QueryRequest{Focal: &focal, Tau: -1}},
		{"empty batch", "/v1/batch", BatchRequest{}},
		{"oversized batch", "/v1/batch", BatchRequest{Focals: []int{1, 2, 3, 4, 5}}},
		{"unknown field", "/v1/query", map[string]any{"focal": 1, "bogus": true}},
	}
	for _, tc := range cases {
		code, body := post(t, srv, tc.path, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, code, body)
			continue
		}
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q", tc.name, body)
		}
	}
	code, body := get(t, srv, "/v1/stats")
	if code != http.StatusOK {
		t.Fatal("stats unavailable")
	}
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Server.Errors != int64(len(cases)) {
		t.Fatalf("error counter = %d, want %d", stats.Server.Errors, len(cases))
	}
}

func TestMethodAndRouteErrors(t *testing.T) {
	srv := newTestServer(t)
	code, _ := get(t, srv, "/v1/query")
	if code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query = %d, want 405", code)
	}
	code, _ = get(t, srv, "/nope")
	if code != http.StatusNotFound {
		t.Fatalf("GET /nope = %d, want 404", code)
	}
}

func TestRequestTimeout(t *testing.T) {
	ds, err := repro.GenerateDataset("IND", 2000, 3, 42, repro.WithPageLatency(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := repro.NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, WithLogger(nil), WithRequestTimeout(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	focal := 3
	code, body := post(t, srv, "/v1/query", QueryRequest{Focal: &focal})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out query = %d (%s), want 504", code, body)
	}
}

func TestExpvarEndpoint(t *testing.T) {
	srv := newTestServer(t)
	focal := 1
	post(t, srv, "/v1/query", QueryRequest{Focal: &focal})
	code, body := get(t, srv, "/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/vars = %d", code)
	}
	var vars struct {
		Maxrank map[string]int64 `json:"maxrank"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("expvar body unparsable: %v", err)
	}
	if vars.Maxrank["queries"] < 1 || vars.Maxrank["requests"] < 1 {
		t.Fatalf("expvar maxrank map %+v, want queries and requests >= 1", vars.Maxrank)
	}
	// Request coalescing is gone, and its counters with it (a documented
	// wire removal): neither metrics surface may still carry them.
	if bytes.Contains(body, []byte("coalesced")) {
		t.Errorf("/debug/vars still carries a coalesced_* key:\n%s", body)
	}
	_, stats := get(t, srv, "/v1/stats")
	if bytes.Contains(stats, []byte("coalesced")) {
		t.Errorf("/v1/stats still carries a coalesced_* key:\n%s", stats)
	}
	// So is the per-class cost model: admission counts requests, and no
	// surface prices them in cost units.
	for _, key := range []string{"cost_model", "cost_units"} {
		if bytes.Contains(body, []byte(key)) || bytes.Contains(stats, []byte(key)) {
			t.Errorf("a metrics surface still carries %q:\n%s\n%s", key, body, stats)
		}
	}
}

// TestConcurrentRequests exercises the full HTTP path under -race.
func TestConcurrentRequests(t *testing.T) {
	srv := newTestServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				focal := (g*3 + i) % 20
				code, body := post(t, srv, "/v1/query", QueryRequest{Focal: &focal})
				if code != http.StatusOK {
					t.Errorf("goroutine %d: status %d: %s", g, code, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := srv.Engine().Stats()
	if s.CacheHits+s.CacheMisses != 80 {
		t.Fatalf("cache lookups = %d, want 80", s.CacheHits+s.CacheMisses)
	}
	if s.CacheMisses != 20 { // 20 distinct focals
		t.Fatalf("CacheMisses = %d, want 20", s.CacheMisses)
	}
}

// TestConcurrentIdenticalQueriesComputeOnce pins the one request-merging
// mechanism the server has: concurrent identical /v1/query requests meet
// in the engine cache's singleflight, so the burst costs one computation
// and every caller gets the same answer.
func TestConcurrentIdenticalQueriesComputeOnce(t *testing.T) {
	srv := newTestServer(t)
	const callers = 16
	focal := 7
	bodies := make([][]byte, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			code, body := post(t, srv, "/v1/query", QueryRequest{Focal: &focal, Tau: 1})
			if code != http.StatusOK {
				t.Errorf("caller %d: status %d: %s", g, code, body)
				return
			}
			bodies[g] = bytes.Replace(body, []byte(`"cached":true`), []byte(`"cached":false`), 1)
		}(g)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	for g := 1; g < callers; g++ {
		if !bytes.Equal(bodies[g], bodies[0]) {
			t.Fatalf("caller %d's answer differs beyond the cached flag:\n%s\n%s", g, bodies[g], bodies[0])
		}
	}
	if s := srv.Engine().Stats(); s.CacheMisses != 1 || s.CacheHits != callers-1 {
		t.Fatalf("engine stats %+v, want 1 miss and %d hits", s, callers-1)
	}
}

// TestGracefulShutdown starts a real listener, issues a request, then
// checks Shutdown drains and Serve returns nil.
func TestGracefulShutdown(t *testing.T) {
	srv := newTestServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	url := fmt.Sprintf("http://%s/healthz", ln.Addr())
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became healthy: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful shutdown, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	if err := srv.Serve(ln); err != nil {
		t.Fatalf("Serve on a shut-down server = %v, want immediate nil (closed)", err)
	}
}

// TestShutdownBeforeServe pins the startup race: a signal that lands
// before Serve must not leave an unstoppable server behind.
func TestShutdownBeforeServe(t *testing.T) {
	srv := newTestServer(t)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown before Serve: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve after Shutdown = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve after Shutdown did not return")
	}
}

func ptr(i int) *int { return &i }
