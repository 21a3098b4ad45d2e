package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/server"
)

// serve_mix: the HTTP server in-process on a loopback listener, a seeded
// stream of what-if, in-dataset and batch requests sent in an open loop at a
// fixed rate over nproc connections, every latency timed from the instant
// the request was due. It is the one workload where the server, the request
// envelope, the result cache and admission do a visible share of the work.
const (
	rateLo  = 50.0 // requests per second
	rateRef = 100.0
	rateHi  = 150.0

	latencyLimitMs = 250.0 // on the p95, for server.max_rate_ok_rps
	backlogLimitMs = 50.0  // growth of the generator's lag over a segment

	cacheCapacity  = 1024 // results; a window inserts some 3500 (what-if and batch answers are cached too)
	queueDepth     = 64
	warmRequests   = 200           // sent closed-loop during set-up, the same in every run
	digestRequests = epochRequests // the digest covers a window's first epoch
)

// reqResult is what the client recorded for one request. Times are offsets
// from the segment's start.
type reqResult struct {
	due, sent, done time.Duration
	status          int
	body            []byte
	err             error
	// handlerStart and handlerEnd are filled by the server-side timing
	// middleware in traced runs.
	handlerStart, handlerEnd time.Duration
}

func (r *reqResult) latency() time.Duration { return r.done - r.due }
func (r *reqResult) lag() time.Duration     { return r.sent - r.due }

type serveEnv struct {
	cfg   runConfig
	pool  *pool
	index map[int]int // record index -> pool index

	ds      *repro.Dataset
	eng     *repro.Engine
	httpSrv *http.Server
	serveWG sync.WaitGroup
	client  *http.Client
	url     string

	// In traced runs the handler is wrapped to time every request; the
	// current segment's records are reachable through seg.
	seg        atomic.Pointer[[]reqResult]
	segStart   time.Time
	recordEven bool
}

// recordMode says which requests of a stretch the timing middleware records.
type recordMode int

const (
	recordNone recordMode = iota
	recordAll
	recordEven // every other request, for the overhead of recording
)

const reqHeader = "X-Bench-Request"

func newServeEnv(cfg runConfig) (*serveEnv, error) {
	p, err := loadPool(cfg.Workload)
	if err != nil {
		return nil, err
	}
	s := &serveEnv{cfg: cfg, pool: p, index: make(map[int]int, len(p.Focals))}
	for i, f := range p.Focals {
		s.index[f] = i
	}
	return s, nil
}

// setup is what setup_s times: data, index, engine with its result cache,
// server with admission, listener, and a closed-loop warm-up that opens the
// connections.
func (s *serveEnv) setup() error {
	_, rows, err := shapes[s.cfg.Workload].generate()
	if err != nil {
		return err
	}
	if s.ds, err = repro.NewDataset(rows); err != nil {
		return err
	}
	if s.eng, err = repro.NewEngine(s.ds, repro.WithQueryParallelism(1), repro.WithCache(cacheCapacity)); err != nil {
		return err
	}
	conns := runtime.NumCPU()
	srv, err := server.New(s.eng, server.WithAdmission(conns, queueDepth), server.WithLogger(log.New(io.Discard, "", 0)))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var handler http.Handler = srv
	if s.cfg.Trace {
		handler = s.timed(srv)
	}
	s.httpSrv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	s.serveWG.Add(1)
	go func() {
		defer s.serveWG.Done()
		s.httpSrv.Serve(ln) // returns when teardown shuts the server down
	}()
	s.url = "http://" + ln.Addr().String()
	s.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		Timeout:   30 * time.Second,
	}
	warm, err := requestStream(0, s.pool, warmRequests)
	if err != nil {
		return err
	}
	if s.cfg.Quick {
		warm = warm[:warmRequests/4]
	}
	for _, r := range s.drive(warm, 0, conns, recordNone) {
		if r.err != nil || r.status != http.StatusOK {
			return fmt.Errorf("warm-up request failed: status %d, %v", r.status, r.err)
		}
	}
	return nil
}

func (s *serveEnv) teardown() {
	if s.httpSrv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.httpSrv.Shutdown(ctx)
	s.serveWG.Wait()
	s.client.CloseIdleConnections()
	s.httpSrv = nil
}

// timed wraps the server's handler to record when each request entered and
// left it, in the record the request's header names.
func (s *serveEnv) timed(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		recs := s.seg.Load()
		i, err := strconv.Atoi(r.Header.Get(reqHeader))
		if recs == nil || err != nil || i >= len(*recs) || (s.recordEven && i%2 != 0) {
			next.ServeHTTP(w, r)
			return
		}
		(*recs)[i].handlerStart = time.Since(s.segStart)
		next.ServeHTTP(w, r)
		(*recs)[i].handlerEnd = time.Since(s.segStart)
	})
}

// drive sends the requests over conns connections. With rate > 0 it is an
// open loop: request i is due at i/rate after the start, a connection that
// is free before then waits for it, and one that frees up later sends at
// once; either way latency counts from the due time, so a stall is charged
// to every request it delays. With rate 0 requests go out back to back.
// With record set, the timing middleware of a traced run fills in when the
// handler saw each request.
func (s *serveEnv) drive(reqs []request, rate float64, conns int, record recordMode) []reqResult {
	out := make([]reqResult, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	if record != recordNone {
		s.recordEven = record == recordEven
		s.segStart = start
		s.seg.Store(&out)
		defer s.seg.Store(nil)
	}
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				rec := &out[i]
				if rate > 0 {
					rec.due = time.Duration(float64(i) / rate * float64(time.Second))
					if wait := rec.due - time.Since(start); wait > 0 {
						time.Sleep(wait)
					}
				} else {
					rec.due = time.Since(start)
				}
				rec.sent = time.Since(start)
				rec.status, rec.body, rec.err = s.send(i, &reqs[i])
				rec.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return out
}

func (s *serveEnv) send(i int, r *request) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, s.url+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqHeader, strconv.Itoa(i))
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// checkResponse validates one response: status, then the answer itself. An
// in-dataset focal's answer must equal the pool's committed one; a batch
// runs FCA on in-dataset focals, so its k* must equal the pool's too, which
// AA computed — the d=2 cross-check; a what-if answer is scored directly,
// every region's witness ranking the point where the region says.
func (s *serveEnv) checkResponse(c *checker, i int, r *request, rec *reqResult, hash bool) (cached bool) {
	c.attempted++
	if rec.err != nil || rec.status != http.StatusOK {
		c.failf("request %d (%s): status %d, %v", i, r.Kind, rec.status, rec.err)
		return false
	}
	var answers []server.QueryResponse
	if r.Kind == "batch" {
		var b server.BatchResponse
		if err := json.Unmarshal(rec.body, &b); err != nil || len(b.Results) != len(r.Focals) {
			c.failf("request %d: batch response: %v", i, err)
			return false
		}
		answers = b.Results
	} else {
		answers = make([]server.QueryResponse, 1)
		if err := json.Unmarshal(rec.body, &answers[0]); err != nil {
			c.failf("request %d: response: %v", i, err)
			return false
		}
	}
	for k, a := range answers {
		if r.Kind == "whatif" {
			if len(a.Regions) == 0 || a.Regions[0].Rank != a.KStar {
				c.failf("request %d: what-if k*=%d has no region of that rank", i, a.KStar)
			}
			for _, reg := range a.Regions {
				if rank, err := s.ds.RankOf(r.Point, reg.QueryVector); err != nil || rank != reg.Rank {
					c.failf("request %d: what-if region claims rank %d, direct scoring gives %d (%v)", i, reg.Rank, rank, err)
				}
			}
		} else {
			pi := s.index[r.Focals[k]]
			if a.KStar != s.pool.KStar[pi] {
				c.failf("request %d focal %d: k*=%d, committed %d", i, r.Focals[k], a.KStar, s.pool.KStar[pi])
			}
			if r.Kind == "focal" && (a.TotalRegions != s.pool.Regions[pi] || a.Stats.IOPages != s.pool.IO[pi]) {
				c.failf("request %d focal %d: regions=%d io=%d, committed %d and %d", i, r.Focals[k],
					a.TotalRegions, a.Stats.IOPages, s.pool.Regions[pi], s.pool.IO[pi])
			}
		}
		if hash {
			c.answer(fmt.Sprintf("%d.%d", i, k), a.KStar, a.TotalRegions, a.Stats.IOPages)
		}
		cached = cached || a.Cached
	}
	return cached
}

// latencies returns the requests' latencies from their due times, in ms.
func latencies(recs []reqResult) timings {
	var t timings
	for i := range recs {
		t.add(recs[i].latency())
	}
	return t
}

func runServe(cfg runConfig) (*outcome, error) {
	s, err := newServeEnv(cfg)
	if err != nil {
		return nil, err
	}
	defer s.teardown()
	setupS, err := medianSetup(cfg.setupReps(), s.setup, s.teardown)
	if err != nil {
		return nil, err
	}
	if cfg.Trace {
		return s.traced()
	}
	n := max(int(rateRef*cfg.Seconds)/epochRequests, 1) * epochRequests
	reqs, err := requestStream(cfg.Seed, s.pool, n)
	if err != nil {
		return nil, err
	}
	var mem memWindow
	mem.start()
	recs := s.drive(reqs, rateRef, runtime.NumCPU(), recordNone)
	mem.stop()

	var c checker
	for i := range recs {
		s.checkResponse(&c, i, &reqs[i], &recs[i], i < digestRequests)
	}
	elapsed := recs[0].done
	for i := range recs {
		elapsed = max(elapsed, recs[i].done)
	}
	// Percentiles per epoch of 200 requests, then the lower quartile over
	// epochs: every epoch carries the same mix and the same cache-miss cost,
	// and the sandbox's slow spells, which only ever add latency, can spoil
	// most epochs of a window before they move the quartile.
	var p50s, p90s []float64
	for lo := 0; lo+epochRequests <= n; lo += epochRequests {
		lat := latencies(recs[lo : lo+epochRequests])
		p50, err := lat.percentile(50)
		if err != nil {
			return nil, err
		}
		p90, err := lat.percentile(90)
		if err != nil {
			return nil, err
		}
		p50s, p90s = append(p50s, p50), append(p90s, p90)
	}
	p50, p90 := lowerQuartile(p50s), lowerQuartile(p90s)
	out := &outcome{Metrics: map[string]sample{}}
	out.Metrics["setup_s"] = sample{setupS, cfg.setupReps()}
	out.Metrics["ops_per_s"] = sample{float64(n-c.failed) / elapsed.Seconds(), n}
	out.Metrics["op_p50_ms"] = sample{p50, n}
	out.Metrics["op_p90_ms"] = sample{p90, n}
	out.Metrics["allocs_per_op"] = sample{mem.mallocs() / float64(n), n}
	out.Metrics["alloc_kb_per_op"] = sample{mem.allocKiB() / float64(n), n}
	out.Notes = append(out.Notes, fmt.Sprintf("open loop, %g requests/s over %d connections for %.1f s; latency from each request's due time, percentiles are lower quartiles over %d epochs of %d requests; goodput is valid answers over elapsed time",
		rateRef, runtime.NumCPU(), elapsed.Seconds(), len(p50s), epochRequests), lagNote(recs))
	c.finish(cfg, out)
	return out, nil
}

// lagNote says how late the generator ran.
func lagNote(recs []reqResult) string {
	lags := make([]float64, len(recs))
	for i := range recs {
		lags[i] = ms(recs[i].lag())
	}
	sort.Float64s(lags)
	return fmt.Sprintf("generator lag: median %.3f ms, p99 %.3f ms, max %.3f ms",
		quantileSorted(lags, 0.5), quantileSorted(lags, 0.99), lags[len(lags)-1])
}
