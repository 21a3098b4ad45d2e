package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro"
	"repro/internal/pager"
	"repro/server/apiv1"
)

// segment is one stretch of the traced serve_mix run at a fixed rate.
type segment struct {
	name   string
	rate   float64
	share  float64 // of the window
	minReq int     // 200 samples put ten beyond the p95
	record recordMode

	reqs  []request
	recs  []reqResult
	start time.Time
}

// traced is the traced run of serve_mix: the stream at three fixed rates
// with a timing middleware around the server's handler; at the reference
// rate the middleware records every other request only, and the two halves'
// latencies give the overhead of recording. Afterwards the what-if and batch
// requests are replayed on Engine.*Opts directly (on an engine without a
// result cache, so that each costs what it cost the server) and the request
// bodies are decoded once more through apiv1.
func (s *serveEnv) traced() (*outcome, error) {
	cfg := s.cfg
	out := &outcome{Metrics: map[string]sample{}}
	mt := out.Metrics
	conns := runtime.NumCPU()
	segs := []*segment{
		{name: "lo", rate: rateLo, share: 0.35, minReq: 200, record: recordAll},
		{name: "ref", rate: rateRef, share: 0.40, minReq: 400, record: recordEven},
		{name: "hi", rate: rateHi, share: 0.25, minReq: 200, record: recordAll},
	}
	total := 0
	for _, sg := range segs {
		total += sg.requests(cfg.Seconds)
	}
	stream, err := requestStream(cfg.Seed, s.pool, total)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var c checker
	issued := 0
	for _, sg := range segs {
		n := sg.requests(cfg.Seconds)
		sg.reqs = stream[issued : issued+n]
		sg.start = time.Now()
		sg.recs = s.drive(sg.reqs, sg.rate, conns, sg.record)
		for i := range sg.recs {
			s.checkResponse(&c, issued+i, &sg.reqs[i], &sg.recs[i], false)
		}
		issued += n
	}
	lo, ref, hi := segs[0], segs[1], segs[2]

	// Handler time, overall and by kind of request, over the recorded
	// stretches; client service time minus handler time is the loopback.
	var handlerAll, loopback, lag timings
	byKind := map[string]*timings{"whatif": {}, "focal_hit": {}, "focal_miss": {}, "batch": {}}
	shed := 0
	for _, sg := range segs {
		for i := range sg.recs {
			rec, req := &sg.recs[i], &sg.reqs[i]
			if rec.status == http.StatusTooManyRequests || rec.status == http.StatusServiceUnavailable {
				shed++
			}
			if rec.status != http.StatusOK || rec.handlerEnd == 0 {
				continue
			}
			h := rec.handlerEnd - rec.handlerStart
			kind := req.Kind
			if kind == "focal" {
				kind = "focal_miss"
				if bytes.Contains(rec.body, []byte(`"cached":true`)) {
					kind = "focal_hit"
				}
			}
			byKind[kind].add(h)
			if sg == ref {
				handlerAll.add(h)
				loopback.add(rec.done - rec.sent - h)
				lag.add(rec.lag())
			}
		}
	}
	p50 := func(t timings) (sample, error) {
		v, err := t.percentile(50)
		return sample{v, len(t)}, err
	}
	if mt["server.handler_p50_ms"], err = p50(handlerAll); err != nil {
		return nil, err
	}
	for kind, t := range byKind {
		if mt["server."+kind+"_p50_ms"], err = p50(*t); err != nil {
			return nil, fmt.Errorf("%s: %w", kind, err)
		}
	}
	mt["server.shed_share"] = sample{per(float64(shed), lo.n()+ref.n()+hi.n()), lo.n() + ref.n() + hi.n()}
	okRate := 0.0
	for _, sg := range segs {
		p95, err := latencies(sg.recs).percentile(95)
		if err != nil {
			return nil, err
		}
		mt["server.rate_"+sg.name+"_p95_ms"] = sample{p95, sg.n()}
		if p95 <= latencyLimitMs && !sg.backlogGrows() {
			okRate = max(okRate, sg.rate)
		}
	}
	mt["server.max_rate_ok_rps"] = sample{okRate, 3}
	lb, err := loopback.percentile(50)
	if err != nil {
		return nil, err
	}
	mt["bench.loopback_us"] = sample{lb * 1000, len(loopback)}
	mt["bench.sched_lag_ms"] = sample{lag.sum() / float64(len(lag)), len(lag)}

	// What recording costs: the what-if requests of the reference stretch,
	// every other one recorded, under the same load and the same cache.
	var recorded, unrecorded timings
	for i := range ref.recs {
		switch {
		case ref.reqs[i].Kind != "whatif":
		case ref.recs[i].handlerEnd != 0:
			recorded.add(ref.recs[i].latency())
		default:
			unrecorded.add(ref.recs[i].latency())
		}
	}
	with, err := recorded.percentile(50)
	if err != nil {
		return nil, err
	}
	without, err := unrecorded.percentile(50)
	if err != nil {
		return nil, err
	}
	mt["trace.overhead_share"] = sample{with / without, len(recorded)}

	st := s.eng.Stats()
	mt["cache.hit_share"] = sample{per(float64(st.CacheHits), int(st.CacheHits+st.CacheMisses)), int(st.CacheHits + st.CacheMisses)}
	mt["cache.evictions"] = sample{float64(st.CacheEvictions), 1}

	if err := s.replayOnEngine(tr, segs, mt); err != nil {
		return nil, err
	}

	// The request envelope: decode, validate and convert every body again.
	t := time.Now()
	for i := range stream {
		var req apiv1.Request = &apiv1.QueryRequest{}
		if stream[i].Kind == "batch" {
			req = &apiv1.BatchRequest{}
		}
		if err := apiv1.Decode(bytes.NewReader(stream[i].Body), req); err != nil {
			return nil, err
		}
		switch r := req.(type) {
		case *apiv1.QueryRequest:
			_, err = r.Options()
		case *apiv1.BatchRequest:
			_, err = r.Options()
		}
		if err != nil {
			return nil, err
		}
	}
	mt["apiv1.decode_us"] = sample{us(time.Since(t)) / float64(len(stream)), len(stream)}

	// The index under the what-if requests, on a mirror.
	pts, _, err := shapes[cfg.Workload].generate()
	if err != nil {
		return nil, err
	}
	m, bulk, err := heapMirror(pts)
	if err != nil {
		return nil, err
	}
	mt["rstar.bulkload_ms"] = sample{ms(bulk), 1}
	mt["pager.heap_read_ns"] = sample{pageReadNs(m.src), m.src.NumPages()}
	rp := &replayer{tr: tr, m: m}
	probes := 0
	var reads pager.Tracker
	for i := range ref.reqs {
		if ref.reqs[i].Kind != "whatif" || probes == tracedFocals {
			continue
		}
		tr.nextOp()
		if err := rp.replayIndex(m.tree.Reader(&reads), ref.reqs[i].Point, -1); err != nil {
			return nil, err
		}
		probes++
	}
	totals := totalByName(tr.spans)
	mt["rstar.count_dominators_ms"] = sample{per(float64(totals["rstar.count_dominators"])/1e6, probes), probes}
	mt["rstar.scan_ms"] = sample{per(float64(totals["rstar.scan"])/1e6, probes), probes}
	mt["pager.reads_per_query"] = sample{per(float64(reads.Reads()), probes), probes}

	// The client's and the handler's view of every recorded request, as
	// spans: http.request from due time to completion, server.handler
	// inside it.
	for _, sg := range segs {
		base := int64(sg.start.Sub(tr.t0))
		for i := range sg.recs {
			rec := &sg.recs[i]
			if rec.handlerEnd == 0 {
				continue
			}
			tr.nextOp()
			tr.spans = append(tr.spans,
				span{Name: "http.request." + sg.name, OpID: tr.opID, Parent: -1, StartNs: base + int64(rec.due), EndNs: base + int64(rec.done)},
				span{Name: "server.handler", OpID: tr.opID, Parent: len(tr.spans), StartNs: base + int64(rec.handlerStart), EndNs: base + int64(rec.handlerEnd)})
		}
	}
	path, err := tr.write(cfg.OutDir, cfg.Workload)
	if err != nil {
		return nil, err
	}
	out.Notes = append(out.Notes,
		fmt.Sprintf("traced at %g, %g and %g requests/s (%d, %d, %d requests)", rateLo, rateRef, rateHi, lo.n(), ref.n(), hi.n()),
		lagNote(ref.recs),
		fmt.Sprintf("%d spans written to %s", len(tr.spans), path))
	c.finish(cfg, out)
	return out, nil
}

func (sg *segment) n() int { return len(sg.recs) }

// requests is how many requests the stretch issues in a window of the given
// length.
func (sg *segment) requests(seconds float64) int {
	return max(int(sg.rate*sg.share*seconds), sg.minReq)
}

// backlogGrows reports whether the generator fell further behind over the
// segment: its mean lag over the last quarter against the first.
func (sg *segment) backlogGrows() bool {
	q := len(sg.recs) / 4
	mean := func(recs []reqResult) float64 {
		var t timings
		for i := range recs {
			t.add(recs[i].lag())
		}
		return t.sum() / float64(len(t))
	}
	return mean(sg.recs[len(sg.recs)-q:])-mean(sg.recs[:q]) > backlogLimitMs
}

// replayOnEngine replays the recorded what-if and batch requests one at a
// time on the engine API the handlers call, inside engine.replay spans, and
// derives server.overhead_us (handler minus engine, on what-if requests),
// engine.batch_ms and cache.hit_us.
func (s *serveEnv) replayOnEngine(tr *tracer, segs []*segment, mt map[string]sample) error {
	plain, err := repro.NewEngine(s.ds, repro.WithQueryParallelism(1))
	if err != nil {
		return err
	}
	ctx := context.Background()
	var whatIf, batch, handlerWhatIf timings
	for _, sg := range segs {
		for i := range sg.reqs {
			req, rec := &sg.reqs[i], &sg.recs[i]
			switch req.Kind {
			case "whatif":
				tr.nextOp()
				whatIf.add(tr.do("engine.replay", func() {
					_, err = plain.QueryPointOpts(ctx, req.Point, repro.QueryOptions{Algorithm: repro.FCA})
				}))
				if rec.handlerEnd != 0 {
					handlerWhatIf.add(rec.handlerEnd - rec.handlerStart)
				}
			case "batch":
				tr.nextOp()
				batch.add(tr.do("engine.replay", func() {
					_, err = plain.QueryBatchOpts(ctx, req.Focals, repro.QueryOptions{Algorithm: repro.FCA})
				}))
			}
			if err != nil {
				return err
			}
		}
	}
	engine, err := whatIf.percentile(50)
	if err != nil {
		return err
	}
	handler, err := handlerWhatIf.percentile(50)
	if err != nil {
		return err
	}
	mt["server.overhead_us"] = sample{(handler - engine) * 1000, len(whatIf)}
	b, err := batch.percentile(50)
	if err != nil {
		return err
	}
	mt["engine.batch_ms"] = sample{b, len(batch)}

	// A hit: the same focal again and again on the caching engine.
	focal := s.pool.Focals[0]
	if _, err := s.eng.QueryOpts(ctx, focal, repro.QueryOptions{}); err != nil {
		return err
	}
	const hits = 1000
	t := time.Now()
	for i := 0; i < hits; i++ {
		res, err := s.eng.QueryOpts(ctx, focal, repro.QueryOptions{})
		if err != nil || !res.Cached {
			return fmt.Errorf("expected a cache hit for focal %d: %v", focal, err)
		}
	}
	mt["cache.hit_us"] = sample{us(time.Since(t)) / hits, hits}
	return nil
}
