package server

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// TestLatencyQuantiles: successful queries populate per-dataset latency
// quantiles in /v1/stats; detaching the ring clears it.
func TestLatencyQuantiles(t *testing.T) {
	srv := newTestServer(t)
	for f := 0; f < 5; f++ {
		focal := f
		if code, _ := post(t, srv, "/v1/query", QueryRequest{Focal: &focal}); code != http.StatusOK {
			t.Fatalf("query %d failed", f)
		}
	}
	code, body := get(t, srv, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d", code)
	}
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	lat := stats.Datasets[DefaultDataset].Latency
	if lat == nil {
		t.Fatal("no latency stats after successful queries")
	}
	if lat.Count != 5 {
		t.Errorf("latency count = %d, want 5", lat.Count)
	}
	if !(lat.P50Ms <= lat.P95Ms && lat.P95Ms <= lat.P99Ms && lat.P99Ms <= lat.MaxMs) {
		t.Errorf("quantiles not monotone: p50=%v p95=%v p99=%v max=%v", lat.P50Ms, lat.P95Ms, lat.P99Ms, lat.MaxMs)
	}
	if lat.P99Ms <= 0 {
		t.Errorf("p99 = %v, want > 0", lat.P99Ms)
	}
	srv.dropLatency(DefaultDataset)
	if srv.latencyStats(DefaultDataset) != nil {
		t.Error("latency ring survived dropLatency")
	}
}

// TestLatencyRingWindow: the ring caps quantile memory but keeps the
// lifetime count and max.
func TestLatencyRingWindow(t *testing.T) {
	r := newLatRing(latWindow)
	for i := 0; i < latWindow+100; i++ {
		r.record(time.Duration(i+1) * time.Microsecond)
	}
	st := r.stats()
	if st.Count != int64(latWindow+100) {
		t.Errorf("count = %d, want %d", st.Count, latWindow+100)
	}
	if want := float64(latWindow+100) / 1000; st.MaxMs != want {
		t.Errorf("max = %v, want %v", st.MaxMs, want)
	}
	// Only the most recent latWindow samples are in the quantile window,
	// so even p50 exceeds the evicted oldest values.
	if st.P50Ms <= 0.1 {
		t.Errorf("p50 = %v suspiciously small: evicted samples still counted?", st.P50Ms)
	}
}
