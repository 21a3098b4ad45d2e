// Command loadtest drives a running maxrankd with synthetic query traffic
// and reports latency quantiles — the measurement harness behind
// scripts/loadtest.sh and the CI load-test smoke job.
//
// Two traffic models:
//
//   - closed loop (-mode closed): -concurrency workers each issue the
//     next request as soon as the previous one returns. Throughput is
//     whatever the server sustains; latency excludes queueing the client
//     refused to do.
//   - open loop (-mode open): requests are injected at -rate per second
//     in bursts of -burst regardless of completions (the model under
//     which an overloaded server's queue grows and its admission gate has
//     to shed). -max-inflight bounds the client; an injection that would
//     exceed it is counted as dropped rather than silently queued, so
//     reported latency stays an honest open-loop number.
//
// Focal mixes: "clustered" draws what-if points near -clusters random
// centers (±-spread per axis), so queries cost about the same within a
// cluster; "uniform" scatters them; "mixed" alternates. What-if points
// (not dataset indexes) keep the server's result cache out of the
// measurement.
//
// Load-shedding responses (429 accept-queue-full, 503 deadline-shed —
// see server.WithAdmission) are counted separately from errors and kept
// out of the latency histogram: the report's goodput_rps is successful
// answers per second, shed_429/shed_503 are the server saying "no"
// gracefully, and errors means something actually failed.
//
// Latencies land in an HDR-style log-bucketed histogram (5% bucket
// ratio), so p50/p95/p99 cost O(buckets) memory at any request count.
// The report is JSON; -sweep runs a comma-separated list of concurrency
// levels in one process (a saturation sweep) and reports one entry each.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// histogram is a log-bucketed latency histogram: bucket 0 holds samples
// up to histMinMs, bucket i>0 holds (histMinMs·ratio^(i-1), histMinMs·ratio^i],
// so any quantile is read back with at most one bucket ratio of error.
type histogram struct {
	mu     sync.Mutex
	counts []int64
	count  int64
	sum    float64
	max    float64
}

const (
	histMinMs = 0.01 // 10µs resolution floor
	histRatio = 1.05
)

func (h *histogram) record(ms float64) {
	idx := 0
	if ms > histMinMs {
		idx = int(math.Log(ms/histMinMs)/math.Log(histRatio)) + 1
	}
	h.mu.Lock()
	for len(h.counts) <= idx {
		h.counts = append(h.counts, 0)
	}
	h.counts[idx]++
	h.count++
	h.sum += ms
	if ms > h.max {
		h.max = ms
	}
	h.mu.Unlock()
}

// quantile returns the upper edge of the bucket holding the nearest-rank
// q-quantile (0 when nothing was recorded).
func (h *histogram) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i == 0 {
				return histMinMs
			}
			edge := histMinMs * math.Pow(histRatio, float64(i))
			if edge > h.max {
				edge = h.max
			}
			return edge
		}
	}
	return h.max
}

// workload generates the query points of one run.
type workload struct {
	dim     int
	mix     string
	spread  float64
	centers [][]float64
}

func newWorkload(dim int, mix string, clusters int, spread float64, rng *rand.Rand) *workload {
	w := &workload{dim: dim, mix: mix, spread: spread}
	for i := 0; i < clusters; i++ {
		c := make([]float64, dim)
		for k := range c {
			// Keep centers away from the domain edges so the jittered
			// points cluster instead of piling up on a clamped face.
			c[k] = 0.2 + 0.6*rng.Float64()
		}
		w.centers = append(w.centers, c)
	}
	return w
}

// point draws one what-if focal; rng is per worker, so workers never
// contend on a shared source.
func (w *workload) point(rng *rand.Rand, seq int64) []float64 {
	clustered := w.mix == "clustered" || (w.mix == "mixed" && seq%2 == 0)
	p := make([]float64, w.dim)
	if clustered {
		c := w.centers[rng.Intn(len(w.centers))]
		for k := range p {
			v := c[k] + (rng.Float64()*2-1)*w.spread
			p[k] = math.Min(1, math.Max(0, v))
		}
		return p
	}
	for k := range p {
		p[k] = rng.Float64()
	}
	return p
}

// tierMix is one entry of the -priorities weighted mix: every request
// draws a priority tier with probability weight/total and carries it in
// the request body, so the server's priority scheduler sees a blended
// workload from a single client process.
type tierMix struct {
	priority string
	weight   int
}

// parsePriorities parses "interactive=50,bulk=50" into a mix. Weights
// are relative, not percentages; tiers may repeat ("" is valid and sends
// no priority field, exercising the default path).
func parsePriorities(s string) ([]tierMix, error) {
	var mix []tierMix
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		prio, weightStr, ok := strings.Cut(tok, "=")
		if !ok {
			return nil, fmt.Errorf("bad -priorities entry %q (want tier=weight)", tok)
		}
		weight, err := strconv.Atoi(weightStr)
		if err != nil || weight < 1 {
			return nil, fmt.Errorf("bad -priorities weight in %q", tok)
		}
		switch strings.ToLower(strings.TrimSpace(prio)) {
		case "", "interactive", "normal", "bulk":
		default:
			return nil, fmt.Errorf("unknown priority tier %q", prio)
		}
		mix = append(mix, tierMix{priority: strings.ToLower(strings.TrimSpace(prio)), weight: weight})
	}
	return mix, nil
}

// tierResult is one priority tier's slice of a mixed-priority run —
// the numbers the priority overload gates read (interactive goodput must
// hold under 2x offered load while bulk sheds).
type tierResult struct {
	Priority   string  `json:"priority"`
	Requests   int64   `json:"requests"`
	Errors     int64   `json:"errors"`
	Shed429    int64   `json:"shed_429,omitempty"`
	Shed503    int64   `json:"shed_503,omitempty"`
	GoodputRPS float64 `json:"goodput_rps"`
	MeanMs     float64 `json:"mean_ms"`
	P50Ms      float64 `json:"p50_ms"`
	P95Ms      float64 `json:"p95_ms"`
	P99Ms      float64 `json:"p99_ms"`
	MaxMs      float64 `json:"max_ms"`
}

// tierStats accumulates one tier's counters during a run.
type tierStats struct {
	hist    histogram
	ok      atomic.Int64
	errs    atomic.Int64
	shed429 atomic.Int64
	shed503 atomic.Int64
}

// runResult is one traffic run's slice of the JSON report.
type runResult struct {
	Label       string  `json:"label,omitempty"`
	Mode        string  `json:"mode"`
	Mix         string  `json:"mix"`
	Concurrency int     `json:"concurrency,omitempty"`
	RateRPS     float64 `json:"rate_rps,omitempty"`
	Burst       int     `json:"burst,omitempty"`
	DurationS   float64 `json:"duration_s"`
	Requests    int64   `json:"requests"`
	// Errors counts transport failures and non-2xx statuses OTHER than
	// the two load-shedding rejections, which are not errors — they are
	// the server degrading as designed and are reported separately:
	// Shed429 (accept queue full) and Shed503 (deadline unmeetable in
	// queue). A healthy overloaded server shows large shed counts and
	// zero errors; errors under load mean something actually broke.
	Errors  int64 `json:"errors"`
	Shed429 int64 `json:"shed_429,omitempty"`
	Shed503 int64 `json:"shed_503,omitempty"`
	Dropped int64 `json:"dropped,omitempty"`
	// ThroughputRPS and GoodputRPS are both successful (200) responses
	// per second — the same number under two names. "Goodput" is the one
	// the overload gates read: it makes explicit that shed responses,
	// however fast, do not count as served work.
	ThroughputRPS float64 `json:"throughput_rps"`
	GoodputRPS    float64 `json:"goodput_rps"`
	MeanMs        float64 `json:"mean_ms"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MaxMs         float64 `json:"max_ms"`
	// Tiers breaks the run down per priority tier when -priorities set a
	// mixed workload; the aggregate fields above still cover every request.
	Tiers []tierResult `json:"tiers,omitempty"`
}

type report struct {
	Label   string      `json:"label"`
	Procs   int         `json:"procs"` // client-side GOMAXPROCS
	Dataset string      `json:"dataset"`
	Dim     int         `json:"dim"`
	Records int         `json:"records"`
	Runs    []runResult `json:"runs"`
}

type cfg struct {
	url         string
	dataset     string
	mode        string
	concurrency int
	rate        float64
	burst       int
	maxInflight int
	duration    time.Duration
	mix         string
	clusters    int
	spread      float64
	tau         int
	algorithm   string
	seed        int64
	sweep       string
	out         string
	label       string
	priorities  string
	mixTiers    []tierMix
}

func main() {
	var c cfg
	flag.StringVar(&c.url, "url", "http://localhost:8080", "maxrankd base URL")
	flag.StringVar(&c.dataset, "dataset", "", "dataset to query (empty = the server's default)")
	flag.StringVar(&c.mode, "mode", "closed", "traffic model: closed or open")
	flag.IntVar(&c.concurrency, "concurrency", 8, "closed-loop worker count")
	flag.Float64Var(&c.rate, "rate", 200, "open-loop injection rate, requests/s")
	flag.IntVar(&c.burst, "burst", 8, "open-loop burst size (requests injected together)")
	flag.IntVar(&c.maxInflight, "max-inflight", 256, "open-loop in-flight cap; injections beyond it are dropped")
	flag.DurationVar(&c.duration, "duration", 10*time.Second, "length of each run")
	flag.StringVar(&c.mix, "mix", "clustered", "focal mix: clustered, uniform or mixed")
	flag.IntVar(&c.clusters, "clusters", 4, "cluster centers (clustered/mixed mix)")
	flag.Float64Var(&c.spread, "spread", 0.02, "per-axis jitter around a cluster center")
	flag.IntVar(&c.tau, "tau", 0, "iMaxRank tau sent with every query")
	flag.StringVar(&c.algorithm, "algorithm", "", "algorithm sent with every query (empty = auto)")
	flag.Int64Var(&c.seed, "seed", 1, "workload RNG seed")
	flag.StringVar(&c.sweep, "sweep", "", "comma-separated closed-loop concurrency levels (overrides -mode/-concurrency)")
	flag.StringVar(&c.out, "out", "", "write the JSON report here (default stdout)")
	flag.StringVar(&c.label, "label", "", "label recorded in the report")
	flag.StringVar(&c.priorities, "priorities", "", `weighted priority mix, e.g. "interactive=50,bulk=50" (empty = no priority field)`)
	flag.Parse()

	if c.mode != "closed" && c.mode != "open" {
		fatalf("unknown -mode %q (closed or open)", c.mode)
	}
	if c.mix != "clustered" && c.mix != "uniform" && c.mix != "mixed" {
		fatalf("unknown -mix %q (clustered, uniform or mixed)", c.mix)
	}
	if c.priorities != "" {
		tiers, err := parsePriorities(c.priorities)
		if err != nil {
			fatalf("%v", err)
		}
		c.mixTiers = tiers
	}
	dim, records, err := waitReady(c.url, c.dataset, 30*time.Second)
	if err != nil {
		fatalf("server not ready: %v", err)
	}

	rep := report{Label: c.label, Procs: runtime.GOMAXPROCS(0), Dataset: c.dataset, Dim: dim, Records: records}
	rng := rand.New(rand.NewSource(c.seed))
	w := newWorkload(dim, c.mix, c.clusters, c.spread, rng)
	if c.sweep != "" {
		for _, tok := range strings.Split(c.sweep, ",") {
			lvl, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || lvl < 1 {
				fatalf("bad -sweep entry %q", tok)
			}
			cc := c
			cc.mode, cc.concurrency = "closed", lvl
			r := runTraffic(&cc, w)
			r.Label = fmt.Sprintf("c%d", lvl)
			rep.Runs = append(rep.Runs, r)
			fmt.Fprintf(os.Stderr, "loadtest: sweep c=%d: %.1f req/s p50=%.2fms p99=%.2fms\n",
				lvl, r.ThroughputRPS, r.P50Ms, r.P99Ms)
		}
	} else {
		r := runTraffic(&c, w)
		rep.Runs = append(rep.Runs, r)
		fmt.Fprintf(os.Stderr, "loadtest: %s/%s: %d ok, %d errors, %d shed (429=%d 503=%d), goodput %.1f req/s p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
			r.Mode, r.Mix, r.Requests, r.Errors, r.Shed429+r.Shed503, r.Shed429, r.Shed503,
			r.GoodputRPS, r.P50Ms, r.P95Ms, r.P99Ms, r.MaxMs)
	}

	outW := io.Writer(os.Stdout)
	if c.out != "" {
		f, err := os.Create(c.out)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		outW = f
	}
	enc := json.NewEncoder(outW)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatalf("writing report: %v", err)
	}
}

// runTraffic executes one run under the configured traffic model.
func runTraffic(c *cfg, w *workload) runResult {
	client := &http.Client{Timeout: 60 * time.Second}
	hist := new(histogram)
	var okCount, errCount, shed429, shed503, dropped atomic.Int64
	deadline := time.Now().Add(c.duration)
	began := time.Now()

	// Per-tier accounting for mixed-priority runs. Weighted draw over the
	// cumulative weights picks each request's tier.
	perTier := make(map[string]*tierStats, len(c.mixTiers))
	var tierOrder []string
	totalWeight := 0
	for _, tm := range c.mixTiers {
		totalWeight += tm.weight
		if _, ok := perTier[tm.priority]; !ok {
			perTier[tm.priority] = new(tierStats)
			tierOrder = append(tierOrder, tm.priority)
		}
	}
	pickTier := func(rng *rand.Rand) string {
		n := rng.Intn(totalWeight)
		for _, tm := range c.mixTiers {
			if n < tm.weight {
				return tm.priority
			}
			n -= tm.weight
		}
		return c.mixTiers[len(c.mixTiers)-1].priority
	}

	shoot := func(rng *rand.Rand, seq int64) {
		fields := map[string]any{
			"dataset":   c.dataset,
			"point":     w.point(rng, seq),
			"tau":       c.tau,
			"algorithm": c.algorithm,
		}
		var tier *tierStats
		if len(c.mixTiers) > 0 {
			prio := pickTier(rng)
			tier = perTier[prio]
			if prio != "" {
				fields["priority"] = prio
			}
		}
		body, _ := json.Marshal(fields)
		start := time.Now()
		resp, err := client.Post(c.url+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			errCount.Add(1)
			if tier != nil {
				tier.errs.Add(1)
			}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			okCount.Add(1)
			// Only served requests enter the histogram: shed responses
			// return in microseconds and would make overload p50/p99
			// look absurdly good.
			ms := float64(time.Since(start)) / float64(time.Millisecond)
			hist.record(ms)
			if tier != nil {
				tier.ok.Add(1)
				tier.hist.record(ms)
			}
		case http.StatusTooManyRequests:
			shed429.Add(1)
			if tier != nil {
				tier.shed429.Add(1)
			}
		case http.StatusServiceUnavailable:
			shed503.Add(1)
			if tier != nil {
				tier.shed503.Add(1)
			}
		default:
			errCount.Add(1)
			if tier != nil {
				tier.errs.Add(1)
			}
		}
	}

	switch c.mode {
	case "closed":
		var wg sync.WaitGroup
		for i := 0; i < c.concurrency; i++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(c.seed + int64(worker)*7919))
				for seq := int64(0); time.Now().Before(deadline); seq++ {
					shoot(rng, seq)
				}
			}(i)
		}
		wg.Wait()
	case "open":
		burst := c.burst
		if burst < 1 {
			burst = 1
		}
		interval := time.Duration(float64(burst) / c.rate * float64(time.Second))
		if interval <= 0 {
			interval = time.Millisecond
		}
		sem := make(chan struct{}, c.maxInflight)
		var wg sync.WaitGroup
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		var seq int64
		var rngMu sync.Mutex
		rng := rand.New(rand.NewSource(c.seed))
		for now := time.Now(); now.Before(deadline); now = <-ticker.C {
			for b := 0; b < burst; b++ {
				select {
				case sem <- struct{}{}:
				default:
					dropped.Add(1)
					continue
				}
				wg.Add(1)
				s := seq
				seq++
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					// Point generation is cheap; one locked source keeps
					// the injected workload deterministic per seed.
					rngMu.Lock()
					worker := rand.New(rand.NewSource(rng.Int63()))
					rngMu.Unlock()
					shoot(worker, s)
				}()
			}
		}
		wg.Wait()
	}

	elapsed := time.Since(began).Seconds()
	res := runResult{
		Mode:      c.mode,
		Mix:       c.mix,
		DurationS: elapsed,
		Requests:  okCount.Load(),
		Errors:    errCount.Load(),
		Shed429:   shed429.Load(),
		Shed503:   shed503.Load(),
		Dropped:   dropped.Load(),
		MaxMs:     hist.max,
		P50Ms:     hist.quantile(0.50),
		P95Ms:     hist.quantile(0.95),
		P99Ms:     hist.quantile(0.99),
	}
	if c.mode == "closed" {
		res.Concurrency = c.concurrency
	} else {
		res.RateRPS = c.rate
		res.Burst = c.burst
	}
	if elapsed > 0 {
		res.ThroughputRPS = float64(res.Requests) / elapsed
		res.GoodputRPS = res.ThroughputRPS
	}
	if res.Requests > 0 {
		res.MeanMs = hist.sum / float64(res.Requests)
	}
	for _, prio := range tierOrder {
		ts := perTier[prio]
		tr := tierResult{
			Priority: prio,
			Requests: ts.ok.Load(),
			Errors:   ts.errs.Load(),
			Shed429:  ts.shed429.Load(),
			Shed503:  ts.shed503.Load(),
			MaxMs:    ts.hist.max,
			P50Ms:    ts.hist.quantile(0.50),
			P95Ms:    ts.hist.quantile(0.95),
			P99Ms:    ts.hist.quantile(0.99),
		}
		if elapsed > 0 {
			tr.GoodputRPS = float64(tr.Requests) / elapsed
		}
		if tr.Requests > 0 {
			tr.MeanMs = ts.hist.sum / float64(tr.Requests)
		}
		res.Tiers = append(res.Tiers, tr)
		fmt.Fprintf(os.Stderr, "loadtest:   tier %-11s %d ok, %d errors, shed 429=%d 503=%d, goodput %.1f req/s p50=%.2fms p99=%.2fms\n",
			orAnon(prio), tr.Requests, tr.Errors, tr.Shed429, tr.Shed503, tr.GoodputRPS, tr.P50Ms, tr.P99Ms)
	}
	return res
}

// orAnon labels the empty tier (requests sent without a priority field)
// in the stderr run summary.
func orAnon(prio string) string {
	if prio == "" {
		return "(default)"
	}
	return prio
}

// waitReady polls /v1/stats until the target dataset is served (or the
// timeout passes) and returns its dimensionality and cardinality.
func waitReady(url, dataset string, timeout time.Duration) (dim, records int, err error) {
	type statsResp struct {
		Datasets map[string]struct {
			Dataset struct {
				Records int `json:"records"`
				Dim     int `json:"dim"`
			} `json:"dataset"`
		} `json:"datasets"`
	}
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, rerr := client.Get(url + "/v1/stats")
		if rerr == nil {
			var st statsResp
			derr := json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if derr == nil {
				name := dataset
				if name == "" {
					if len(st.Datasets) == 1 {
						for only := range st.Datasets {
							name = only
						}
					} else {
						name = "default"
					}
				}
				if e, ok := st.Datasets[name]; ok && e.Dataset.Dim >= 2 {
					return e.Dataset.Dim, e.Dataset.Records, nil
				}
				err = fmt.Errorf("dataset %q not served yet", name)
			} else {
				err = derr
			}
		} else {
			err = rerr
		}
		if time.Now().After(deadline) {
			return 0, 0, err
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadtest: "+format+"\n", args...)
	os.Exit(2)
}
