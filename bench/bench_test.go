package main

import (
	"bytes"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{19, 50, false}, {20, 50, true},
		{99, 90, false}, {100, 90, true},
		{199, 95, false}, {200, 95, true},
		{999, 99, false}, {1000, 99, true},
	} {
		if got := supportsPercentile(tc.n, tc.p); got != tc.want {
			t.Errorf("supportsPercentile(%d, p%g) = %t, want %t", tc.n, tc.p, got, tc.want)
		}
	}
	lat := make(timings, 99)
	for i := range lat {
		lat[i] = float64(i)
	}
	if _, err := lat.percentile(90); err == nil {
		t.Error("p90 over 99 samples was printed; it has fewer than ten samples beyond it")
	}
	if v, err := lat.percentile(50); err != nil || v != 49 {
		t.Errorf("p50 of 0..98 = %v, %v; want 49", v, err)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got := spreadShare([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("spreadShare = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// A server that stalls on its first request delays everything queued behind
// it on the one connection. Timed from when each request was due, the later
// requests carry the stall; timed from when they were sent, they would not.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	first := true
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first {
			first = false
			time.Sleep(stall)
		}
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	s := &serveEnv{client: ts.Client(), url: ts.URL}
	reqs := make([]request, 10)
	for i := range reqs {
		reqs[i] = request{Path: "/", Body: []byte("{}")}
	}
	recs := s.drive(reqs, 100, 1, recordNone) // due every 10 ms, one connection
	for i := 1; i < len(recs); i++ {
		r := recs[i]
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("request %d: status %d, %v", i, r.status, r.err)
		}
		if want := time.Duration(i) * 10 * time.Millisecond; r.due != want {
			t.Errorf("request %d due at %v, want %v", i, r.due, want)
		}
		service := r.done - r.sent
		if service > stall/2 {
			t.Errorf("request %d: service time %v; only the first request was stalled", i, service)
		}
		if left := stall - r.due; r.latency() < left-20*time.Millisecond {
			t.Errorf("request %d: latency %v from its due time, but the stall held it for %v", i, r.latency(), left)
		}
		if r.lag() <= 0 {
			t.Errorf("request %d: generator lag %v, want > 0 behind a stalled connection", i, r.lag())
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "replay", Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "skyline.build", Parent: 0, StartNs: 5, EndNs: 25},
		{Name: "cellenum.enumerate", Parent: 0, StartNs: 30, EndNs: 90},
		{Name: "lp.solve", Parent: 2, StartNs: 40, EndNs: 50},
		{Name: "lp.solve", Parent: 2, StartNs: 60, EndNs: 75},
		{Name: "core.run", Parent: -1, StartNs: 100, EndNs: 140},
	}
	if got, want := selfTimes(spans), []int64{20, 20, 35, 10, 15, 40}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	self, count := selfByName(spans)
	if self["lp.solve"] != 25 || count["lp.solve"] != 2 {
		t.Errorf("lp.solve self %d over %d spans, want 25 over 2", self["lp.solve"], count["lp.solve"])
	}
	var sum int64
	for _, v := range self {
		sum += v
	}
	if sum != 140 {
		t.Errorf("self times add up to %d, the top-level spans cover 140", sum)
	}

	tr := newTracer()
	tr.nextOp()
	tr.begin("outer")
	tr.do("inner", func() {})
	tr.end()
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || tr.spans[1].OpID != 1 {
		t.Errorf("tracer nesting: %+v", tr.spans)
	}
	var none *tracer
	none.nextOp()
	if d := none.do("x", func() { time.Sleep(time.Millisecond) }); d < time.Millisecond {
		t.Errorf("nil tracer timed %v, want at least 1ms", d)
	}
}

func TestSeedDecidesInputs(t *testing.T) {
	p, err := loadPool("serve_mix")
	if err != nil {
		t.Fatal(err)
	}
	bodies := func(seed int64) []byte {
		reqs, err := requestStream(seed, p, 500)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		for _, r := range reqs {
			b.WriteString(r.Path)
			b.Write(r.Body)
		}
		return b.Bytes()
	}
	if !bytes.Equal(bodies(7), bodies(7)) {
		t.Error("the same seed gave two different request streams")
	}
	if bytes.Equal(bodies(7), bodies(8)) {
		t.Error("seeds 7 and 8 gave the same request stream")
	}
	kinds := map[string]int{}
	reqs, _ := requestStream(7, p, 2000)
	for _, r := range reqs {
		kinds[r.Kind]++
	}
	if kinds["whatif"] != 1200 || kinds["focal"] != 600 || kinds["batch"] != 200 {
		t.Errorf("2000 requests are %v, want 1200 what-if, 600 focal, 200 batch", kinds)
	}

	list := func(seed int64) []int { return stratifiedSample(rand.New(rand.NewSource(seed)), 540, focalsPerRun) }
	if !reflect.DeepEqual(list(3), list(3)) {
		t.Error("the same seed gave two different focal lists")
	}
	if reflect.DeepEqual(list(3), list(4)) {
		t.Error("seeds 3 and 4 gave the same focal list")
	}
	seen := map[int]bool{}
	for _, pi := range list(3) {
		for j := 0; j < focalsPerRun; j++ {
			if j*540/focalsPerRun <= pi && pi < (j+1)*540/focalsPerRun {
				seen[j] = true
			}
		}
	}
	if len(seen) != focalsPerRun {
		t.Errorf("the list covers %d of %d strata", len(seen), focalsPerRun)
	}

	if !reflect.DeepEqual(mutationFor(5, 17, 1000, 2), mutationFor(5, 17, 1000, 2)) {
		t.Error("the same seed and cycle gave two different mutations")
	}
	if reflect.DeepEqual(mutationFor(5, 17, 1000, 2), mutationFor(6, 17, 1000, 2)) {
		t.Error("seeds 5 and 6 gave the same mutation")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name       string
		m          metricSpec
		base, cand []float64
		want       string
	}{
		{"same", lower, tight, tight, "ok"},
		{"slower by a fifth", lower, tight, []float64{120, 121, 119, 122, 120}, "regression"},
		{"faster", lower, tight, []float64{80, 81, 79, 80, 82}, "ok"},
		{"throughput down a fifth", higher, tight, []float64{80, 81, 79, 80, 82}, "regression"},
		{"too noisy to tell", lower, []float64{80, 100, 120, 90, 115}, []float64{85, 105, 118, 92, 110}, "unresolved"},
		{"noisy but every run better", lower, []float64{80, 100, 120, 90, 115}, []float64{40, 50, 60, 45, 55}, "ok"},
	} {
		if _, _, got := verdict(tc.m, tc.base, tc.cand); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestQuickRunCoversTheSpec runs every workload in -quick mode, untraced and
// traced, and holds the output against BENCHMARK.json: every end-to-end
// metric must come out of every workload and be positive, and every
// per-layer metric must come out positive from at least one.
func TestQuickRunCoversTheSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads twice")
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.workloadNames(); !reflect.DeepEqual(got, []string{"heavy_d4", "wide_d2", "serve_mix", "mutate_cycle"}) {
		t.Fatalf("BENCHMARK.json names workloads %v", got)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	layerSeen := map[string]bool{}
	for _, name := range sp.workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{Workload: name, Seed: 1, Seconds: 1, Trace: traced, Quick: true, OutDir: t.TempDir()}
			start := time.Now()
			out, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			if out.Failed != 0 {
				t.Errorf("%s traced=%t: %d of %d checks failed: %v", name, traced, out.Failed, out.Attempted, out.Failures)
			}
			line, err := report(devnull, sp, cfg, out)
			if err != nil {
				t.Errorf("%s traced=%t: %v", name, traced, err)
				continue
			}
			for _, key := range []string{`"correct":true`, `"attempted":`, `"failed":0`, `"metrics":`} {
				if !strings.Contains(line, key) {
					t.Errorf("%s: closing line lacks %s: %s", name, key, line)
				}
			}
			for _, m := range sp.metrics(traced) {
				v := out.Metrics[m.Name].Value
				switch {
				case math.IsNaN(v) || math.IsInf(v, 0):
					t.Errorf("%s: %s = %v", name, m.Name, v)
				case !traced && v <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, v)
				case traced && v != 0:
					layerSeen[m.Name] = true
				}
			}
			t.Logf("%s traced=%t: %.1fs, digest %s", name, traced, time.Since(start).Seconds(), out.Digest)
		}
	}
	for _, m := range sp.PerLayer {
		// Nothing is shed and nothing evicted in a quick run; zero is the
		// right reading for these two.
		if !layerSeen[m.Name] && m.Name != "server.shed_share" && m.Name != "cache.evictions" {
			t.Errorf("no workload reports per-layer metric %s", m.Name)
		}
	}
}
