package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/server/apiv1"
)

// Scheduling tiers, aliased from the wire contract: 0 (interactive) is
// dispatched first, numTiers-1 (bulk) is shed first.
const (
	tierInteractive = apiv1.TierInteractive
	tierNormal      = apiv1.TierNormal
	tierBulk        = apiv1.TierBulk
	numTiers        = apiv1.NumTiers
)

// WithAdmission bounds what each served dataset is allowed to execute
// concurrently. Capacity counts requests: every /v1/query and every
// /v1/batch, whatever its size, holds one slot. At most maxInflight
// requests execute at once, up to queueDepth more wait in a bounded
// accept queue, and everything beyond that is rejected early with 429
// instead of being accepted into an unbounded backlog the server cannot
// serve.
//
// The queue is priority-aware: requests declare a tier ("interactive" >
// "normal" > "bulk", default normal), higher tiers are dispatched first,
// and when the queue is full a new arrival evicts the newest waiter of a
// strictly lower tier instead of being rejected — bulk sheds first.
// Within a tier dispatch is FIFO, and aging protects the low tiers from
// starvation: a waiter that has queued for one aging threshold
// (WithAging, default 5s) is promoted one tier, and again a threshold
// later, so under sustained interactive pressure a bulk request reaches
// the front in bounded time instead of never.
//
// Queued requests are deadline-aware: a request whose remaining deadline
// cannot cover the dataset's p50 query latency is shed with 503 the
// moment that becomes true rather than holding a queue slot it can only
// waste; the p50 is re-read each time the shed timer fires, so a queue
// that drained faster than predicted keeps the request alive. Both
// rejections carry a Retry-After header estimating how long the queued
// requests take to drain, so well-behaved clients back off for roughly
// one queue-drain interval.
//
// Status semantics: 429 Too Many Requests means "the accept queue is
// full — the offered load exceeds capacity, send slower" (including
// eviction by a higher-priority arrival); 503 Service Unavailable means
// "admitted to the queue, but your deadline cannot be met under the
// current backlog". Both are per-dataset conditions, not process
// failures, and both are counted (admitted / shed_queue_full /
// shed_deadline, with per-tier breakdowns) in /v1/stats and expvar.
//
// maxInflight <= 0 (the default) disables admission control entirely;
// queueDepth < 0 is treated as 0 (no queue: the limit is a hard cap).
func WithAdmission(maxInflight, queueDepth int) Option {
	return func(s *Server) {
		s.admitLimit = maxInflight
		if queueDepth > 0 {
			s.admitDepth = queueDepth
		}
	}
}

// WithAging sets the starvation bound of the priority queue: a waiter is
// promoted one tier each time it has queued for threshold. Default 5s;
// d <= 0 disables aging, letting bulk requests starve under sustained
// higher-tier pressure.
func WithAging(threshold time.Duration) Option {
	return func(s *Server) { s.aging = threshold }
}

// AdmissionEnabled reports whether the server was built with admission
// control (WithAdmission with a positive in-flight limit).
func (s *Server) AdmissionEnabled() bool { return s.admitLimit > 0 }

// waiter is one queued request. All state transitions happen under
// gate.mu; grant is buffered(1) and written exactly once (granted or
// evicted), so transitions never block on the waiter's goroutine.
type waiter struct {
	tier    int // current scheduling tier; decreases as aging promotes
	billed  int // declared tier, which the counters bill (aging never changes it)
	grant   chan waiterEvent
	state   int
	promote *time.Timer // pending aging promotion, nil when unarmed
}

type waiterEvent int

const (
	evGranted waiterEvent = iota
	evEvicted
)

// waiter states.
const (
	wQueued  = iota // in a tier queue
	wGranted        // dispatched; event sent
	wEvicted        // displaced by a higher-tier arrival; event sent
	wGone           // removed by its own goroutine (deadline or cancel)
)

// tierCounts is one admission counter kept per declared tier. Load sums
// the tiers: each tier only grows, so the total is monotonic too.
type tierCounts [numTiers]atomic.Int64

// Load returns the counter's total across tiers.
func (c *tierCounts) Load() int64 {
	var n int64
	for t := range c {
		n += c[t].Load()
	}
	return n
}

// gate is one dataset's admission state: the tiered wait queues, the
// slot ledger, and the shed/admit counters. Gates are created lazily per
// dataset name and dropped on detach; the server-level counters
// (Server.admitted et al.) stay cumulative across gate lifetimes.
type gate struct {
	srv   *Server
	limit int // max executing requests
	depth int // max queued waiters
	aging time.Duration

	mu       sync.Mutex
	queues   [numTiers][]*waiter
	queued   int // total waiters across tiers
	inflight int // requests executing
	hwm      int // high-water mark of inflight

	admitted, shedQueueFull, shedDeadline tierCounts
}

// TierAdmissionStats is one scheduling tier's slice of a dataset's
// admission counters.
type TierAdmissionStats struct {
	// Queued is the number of waiters currently scheduled in this tier
	// (aging moves waiters between tiers, so a bulk request may appear
	// here as normal after a promotion).
	Queued int `json:"queued"`
	// Admitted, ShedQueueFull and ShedDeadline count requests of this tier
	// (by declared priority) that were granted, rejected 429, or dropped
	// 503.
	Admitted      int64 `json:"admitted"`
	ShedQueueFull int64 `json:"shed_queue_full"`
	ShedDeadline  int64 `json:"shed_deadline"`
}

// AdmissionStats is one dataset's slice of the admission counters in
// GET /v1/stats. Admitted and the shed counters are cumulative for the
// gate's lifetime (a detach discards the gate; the server-level totals
// in ServerStats survive it); Inflight and Queued are instantaneous.
type AdmissionStats struct {
	// MaxInflight and QueueDepth echo the configured bounds.
	MaxInflight int `json:"max_inflight"`
	QueueDepth  int `json:"queue_depth"`
	// Inflight is the number of requests executing right now; Queued is
	// the number waiting for a slot.
	Inflight int `json:"inflight"`
	Queued   int `json:"queued"`
	// Admitted counts requests that obtained execution capacity.
	Admitted int64 `json:"admitted"`
	// ShedQueueFull counts requests rejected with 429 because the accept
	// queue was full (or they were evicted from it by a higher-priority
	// arrival); ShedDeadline counts queued requests dropped with 503
	// because their deadline could no longer be met.
	ShedQueueFull int64 `json:"shed_queue_full"`
	ShedDeadline  int64 `json:"shed_deadline"`
	// Tiers breaks the counters down by scheduling tier, keyed by tier
	// name ("interactive", "normal", "bulk").
	Tiers map[string]TierAdmissionStats `json:"tiers,omitempty"`
}

// shedError is the typed rejection of an admission (or quota) decision.
// It maps to its own HTTP status and carries the Retry-After the response
// must advertise.
type shedError struct {
	status     int    // 429 (queue full / quota) or 503 (deadline shed)
	retryAfter int    // whole seconds, >= 1
	reason     string // human-readable cause
}

func (e *shedError) Error() string {
	return fmt.Sprintf("overloaded: %s (retry after %ds)", e.reason, e.retryAfter)
}

// gate returns the dataset's admission gate, creating it on first use,
// or nil when admission control is disabled.
func (s *Server) gate(name string) *gate {
	if s.admitLimit <= 0 {
		return nil
	}
	s.gateMu.Lock()
	defer s.gateMu.Unlock()
	g := s.gates[name]
	if g == nil {
		g = &gate{
			srv:   s,
			limit: s.admitLimit,
			depth: s.admitDepth,
			aging: s.aging,
		}
		s.gates[name] = g
	}
	return g
}

// dropGate discards the named dataset's gate on detach. In-flight
// requests still hold references to the old gate object and release into
// it harmlessly; a later dataset under the same name starts fresh. The
// server-level cumulative counters are untouched.
func (s *Server) dropGate(name string) {
	if s.admitLimit <= 0 {
		return
	}
	s.gateMu.Lock()
	delete(s.gates, name)
	s.gateMu.Unlock()
}

// admissionStats snapshots the named dataset's gate counters, or nil
// when admission control is off or the dataset has never been queried.
func (s *Server) admissionStats(name string) *AdmissionStats {
	if s.admitLimit <= 0 {
		return nil
	}
	s.gateMu.Lock()
	g := s.gates[name]
	s.gateMu.Unlock()
	if g == nil {
		return nil
	}
	g.mu.Lock()
	st := &AdmissionStats{
		MaxInflight: g.limit,
		QueueDepth:  g.depth,
		Inflight:    g.inflight,
		Queued:      g.queued,
	}
	perTierQueued := [numTiers]int{}
	for t := 0; t < numTiers; t++ {
		perTierQueued[t] = len(g.queues[t])
	}
	g.mu.Unlock()
	st.Tiers = make(map[string]TierAdmissionStats, numTiers)
	for t := 0; t < numTiers; t++ {
		ts := TierAdmissionStats{
			Queued:        perTierQueued[t],
			Admitted:      g.admitted[t].Load(),
			ShedQueueFull: g.shedQueueFull[t].Load(),
			ShedDeadline:  g.shedDeadline[t].Load(),
		}
		st.Tiers[apiv1.TierName(t)] = ts
		st.Admitted += ts.Admitted
		st.ShedQueueFull += ts.ShedQueueFull
		st.ShedDeadline += ts.ShedDeadline
	}
	return st
}

// bill counts one request's admission outcome to the gate's and the
// server's counter of that kind, under its declared tier.
func bill(gc, sc *tierCounts, tier int) {
	gc[tier].Add(1)
	sc[tier].Add(1)
}

// grantLocked takes a slot and bills the admission counters under the
// request's declared tier. Caller holds g.mu.
func (g *gate) grantLocked(tier int) {
	g.inflight++
	if g.inflight > g.hwm {
		g.hwm = g.inflight
	}
	bill(&g.admitted, &g.srv.admitted, tier)
}

// dispatchLocked grants queued waiters, best tier first and FIFO within a
// tier, while a slot is free. Caller holds g.mu.
func (g *gate) dispatchLocked() {
	for g.inflight < g.limit {
		var w *waiter
		tier := -1
		for t := 0; t < numTiers; t++ {
			if len(g.queues[t]) > 0 {
				w = g.queues[t][0]
				tier = t
				break
			}
		}
		if w == nil {
			return
		}
		g.queues[tier] = g.queues[tier][1:]
		g.queued--
		w.state = wGranted
		g.stopPromoteLocked(w)
		g.grantLocked(w.billed)
		w.grant <- evGranted
	}
}

// unqueueLocked removes w from its tier queue (it must be wQueued).
// Caller holds g.mu and sets w.state itself.
func (g *gate) unqueueLocked(w *waiter) {
	q := g.queues[w.tier]
	for i, x := range q {
		if x == w {
			g.queues[w.tier] = append(q[:i], q[i+1:]...)
			break
		}
	}
	g.queued--
	g.stopPromoteLocked(w)
}

// victimLocked picks the waiter a tier-`tier` arrival may displace when
// the queue is full: the newest waiter of the lowest strictly-lower
// tier, or nil when nothing queued outranks downward. Caller holds g.mu.
func (g *gate) victimLocked(tier int) *waiter {
	for t := numTiers - 1; t > tier; t-- {
		if q := g.queues[t]; len(q) > 0 {
			return q[len(q)-1]
		}
	}
	return nil
}

// armPromoteLocked schedules w's next aging promotion, one aging
// threshold from now. Caller holds g.mu.
func (g *gate) armPromoteLocked(w *waiter) {
	if g.aging <= 0 || w.tier == 0 {
		return
	}
	w.promote = time.AfterFunc(g.aging, func() { g.promoteWaiter(w) })
}

func (g *gate) stopPromoteLocked(w *waiter) {
	if w.promote != nil {
		w.promote.Stop()
		w.promote = nil
	}
}

// promoteWaiter ages w one tier up (towards interactive), re-arms the
// next step, and re-runs dispatch — the promotion may have put w at the
// schedulable head.
func (g *gate) promoteWaiter(w *waiter) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if w.state != wQueued || w.tier == 0 {
		return
	}
	q := g.queues[w.tier]
	for i, x := range q {
		if x == w {
			g.queues[w.tier] = append(q[:i], q[i+1:]...)
			break
		}
	}
	w.tier--
	g.queues[w.tier] = append(g.queues[w.tier], w)
	w.promote = nil
	g.armPromoteLocked(w)
	g.dispatchLocked()
}

// admit asks the named dataset's gate for a slot on behalf of one
// request of the given tier (a query or a whole batch). It returns a
// release function that must be called exactly once when the execution
// finishes (idempotent: extra calls are no-ops), or a *shedError when the
// request was shed:
//
//   - 429 shed_queue_full when the accept queue is at queueDepth and the
//     arrival outranks nothing in it — or, symmetrically, when a queued
//     waiter is evicted by a strictly higher-tier arrival;
//   - 503 shed_deadline when ctx carries a deadline that the dataset's
//     p50 query latency no longer fits in — checked at enqueue, and
//     re-checked with a fresh p50 each time the shed timer fires
//     (a backlog that drained faster than predicted keeps the request
//     alive instead of shedding it on a stale forecast).
//
// A ctx cancelled while queued (client disconnect) returns ctx.Err()
// and counts as neither admitted nor shed, so absent disconnects
// admitted + shed_queue_full + shed_deadline equals the offered load.
func (s *Server) admit(ctx context.Context, name string, tier int) (release func(), err error) {
	g := s.gate(name)
	if g == nil {
		return func() {}, nil
	}
	mkRelease := func() func() {
		var once sync.Once
		return func() {
			once.Do(func() {
				g.mu.Lock()
				g.inflight--
				g.dispatchLocked()
				g.mu.Unlock()
			})
		}
	}

	g.mu.Lock()
	if g.queued == 0 && g.inflight < g.limit {
		g.grantLocked(tier)
		g.mu.Unlock()
		return mkRelease(), nil
	}
	// Contended: queue, displacing a lower-tier waiter when full.
	if g.queued >= g.depth {
		victim := g.victimLocked(tier)
		if victim == nil {
			queued := g.queued
			g.mu.Unlock()
			bill(&g.shedQueueFull, &s.shedQueueFull, tier)
			return nil, &shedError{
				status:     http.StatusTooManyRequests,
				retryAfter: s.retryAfterSeconds(name, queued, g.limit),
				reason:     "admission queue full",
			}
		}
		g.unqueueLocked(victim)
		victim.state = wEvicted
		victim.grant <- evEvicted
	}
	w := &waiter{
		tier:   tier,
		billed: tier,
		grant:  make(chan waiterEvent, 1),
	}
	g.queues[w.tier] = append(g.queues[w.tier], w)
	g.queued++
	g.armPromoteLocked(w)
	g.dispatchLocked()
	g.mu.Unlock()

	// Deadline-aware wait: shed at the last instant the request could
	// still be started and finish by its deadline, assuming it takes the
	// dataset's p50. The p50 is re-read whenever the timer fires, so the
	// decision always uses the freshest forecast.
	var (
		shedTimer *time.Timer
		shedC     <-chan time.Time
	)
	deadline, hasDeadline := ctx.Deadline()
	arm := func() bool {
		est := time.Duration(s.latencyEstimate(name) * float64(time.Millisecond))
		budget := time.Until(deadline) - est
		if budget <= 0 {
			return false
		}
		if shedTimer == nil {
			shedTimer = time.NewTimer(budget)
			shedC = shedTimer.C
		} else {
			shedTimer.Reset(budget)
		}
		return true
	}
	shedNow := hasDeadline && !arm()
	if shedTimer != nil {
		defer shedTimer.Stop()
	}
	if shedNow {
		if se := s.abandonForDeadline(g, w, name); se != nil {
			return nil, se
		}
		// Granted or evicted in the window before we could leave the
		// queue; fall through and consume the event.
	}

	for {
		select {
		case ev := <-w.grant:
			if ev == evGranted {
				return mkRelease(), nil
			}
			g.mu.Lock()
			queued := g.queued
			g.mu.Unlock()
			bill(&g.shedQueueFull, &s.shedQueueFull, w.billed)
			return nil, &shedError{
				status:     http.StatusTooManyRequests,
				retryAfter: s.retryAfterSeconds(name, queued, g.limit),
				reason:     "evicted by higher-priority request",
			}
		case <-shedC:
			// Re-evaluate before shedding: the queue may have drained
			// faster than the estimate the timer was armed with.
			if arm() {
				continue
			}
			if se := s.abandonForDeadline(g, w, name); se != nil {
				return nil, se
			}
			// Raced with a grant/eviction; loop to consume the event
			// (buffered, so it is already there or imminent).
			shedC = nil
		case <-ctx.Done():
			g.mu.Lock()
			if w.state == wQueued {
				g.unqueueLocked(w)
				w.state = wGone
				g.mu.Unlock()
				return nil, ctx.Err()
			}
			g.mu.Unlock()
			if ev := <-w.grant; ev == evGranted {
				// Granted concurrently with cancellation: give the
				// capacity back and report the disconnect.
				mkRelease()()
			}
			return nil, ctx.Err()
		}
	}
}

// abandonForDeadline removes w from the queue as a 503 deadline shed. It
// returns nil when w is no longer queued (a grant or eviction raced the
// removal — the caller must consume the pending event instead).
func (s *Server) abandonForDeadline(g *gate, w *waiter, name string) *shedError {
	g.mu.Lock()
	if w.state != wQueued {
		g.mu.Unlock()
		return nil
	}
	g.unqueueLocked(w)
	w.state = wGone
	queued := g.queued
	g.mu.Unlock()
	bill(&g.shedDeadline, &s.shedDeadline, w.billed)
	return &shedError{
		status:     http.StatusServiceUnavailable,
		retryAfter: s.retryAfterSeconds(name, queued, g.limit),
		reason:     "deadline cannot be met in queue",
	}
}

// retryAfterSeconds computes the Retry-After a shed response advertises:
// the time the queued requests need to drain — queued+1 requests at the
// dataset's p50 each, across `limit` slots — rounded up to whole seconds
// and clamped to [1, 60]: an honest "come back when the backlog you were
// rejected behind should be gone", not a fixed magic number.
func (s *Server) retryAfterSeconds(name string, queued, limit int) int {
	p50 := s.latencyEstimate(name)
	if limit < 1 {
		limit = 1
	}
	drainMs := float64(queued+1) * p50 / float64(limit)
	secs := int(math.Ceil(drainMs / 1000))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}
