package serve

import (
	"context"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qos"
)

// pending is one caller's share of a coalescing window. Its context and
// deadline travel with it: the window flushes early when the oldest
// waiter's remaining budget drops below the expected flush cost, and a
// pending whose context is already done when its flush starts is dropped
// from the batch without paying for its targets. res/err are written only
// by the flusher, before done closes; an abandoning caller stops reading
// them (it returns its context's error instead), so a caller going away
// mid-flush never blocks or races the batch.
type pending struct {
	targets  []int
	tenant   string
	ctx      doneCtx
	deadline time.Time // effective deadline (zero = none); informs early flush
	lo       int       // offset of this request's targets in the flushed batch
	res      *core.Result
	err      error
	done     chan struct{}
	// tr is the request's trace; enq is when the request entered the
	// window, closing the queue-wait span at flush time.
	tr  *obs.Trace
	enq time.Time
}

// doneCtx is the slice of context.Context the coalescer needs; a named
// subset keeps pending constructible in tests without a full context.
type doneCtx interface {
	Done() <-chan struct{}
	Err() error
}

// coalescer micro-batches concurrent Classify calls: requests join the open
// window until it holds MaxBatch targets (flush now), MaxWait elapses since
// the window opened (timer flush), or the tightest waiter deadline minus
// the expected flush cost arrives (early deadline flush). Flushes run in
// the goroutine that closed the window — while one batch infers, the next
// window fills. At MaxWait ≤ 0 there is no window: submit closes it in the
// critical section that appended to it, so every flush is exactly one request.
//
// Admission control fronts the window: every submit must first take its
// targets from the bounded budget (queued + in-flight flush targets,
// weighted-fair across tenants), so overload turns into microsecond-cheap
// rejections instead of unbounded parked goroutines.
type coalescer struct {
	srv *Server

	// graphMu is the serving read/write lock: coalesced Infer calls hold it
	// shared, graph deltas hold it exclusive (the access Refresh needs).
	graphMu sync.RWMutex

	// budget bounds pending work (Config.MaxPending targets; unbounded
	// when ≤ 0 but still tracked for the pending_targets gauge); detector
	// watches budget depth and flush-latency EWMA to drive degraded mode.
	budget   *qos.FairBudget
	detector *qos.Detector

	mu     sync.Mutex // guards the open window below
	queue  []*pending
	count  int // total targets queued
	gen    int // window generation, invalidates stale timers
	timer  *time.Timer
	fireAt time.Time // when the armed timer fires
	closed bool
}

func newCoalescer(s *Server) *coalescer {
	return &coalescer{
		srv:    s,
		budget: qos.NewFairBudget(s.cfg.MaxPending, s.cfg.Quotas.Weight),
		// The latency loop trips when flushes take longer than the default
		// deadline (every waiter would expire anyway); depth watermarks are
		// the qos defaults (trip ≥90% of the budget, clear ≤50%).
		detector: qos.NewDetector(qos.DetectorConfig{TripLatency: s.cfg.DefaultDeadline}),
	}
}

// submit queues one request, flushes if the window filled (or, coalescing
// disabled, at once and alone), and blocks until the request's batch has been
// served or the caller's context is done. The returned error is what the
// caller sees: admission/shutdown rejections (which never enqueue), the
// caller's own context error (504/499 at the HTTP layer), or — after the
// flush — the batch's Infer error. On success p.res/p.lo hold the caller's
// span.
func (c *coalescer) submit(p *pending) error {
	n := len(p.targets)
	if cap := c.budget.Capacity(); cap > 0 && n > cap {
		// Larger than the whole budget: Acquire would refuse this request
		// forever, so a retryable 429 would be a lie — reject it as the
		// client error it is (400), telling the caller the real bound.
		return badRequestf("serve: request has %d targets, admission budget holds at most %d (split the request or raise -max-pending)", n, cap)
	}
	if !c.budget.Acquire(p.tenant, n) {
		// Fast 429: the reject costs a mutex acquire, never an Infer. The
		// retry hint is one flush's expected cost — by then a window's worth
		// of budget has drained. ClassifyContext counts it, by outcome.
		c.detector.Update(c.budget.Pending(), c.budget.Capacity())
		return &retryableError{err: ErrOverloaded, retry: c.expectedFlushCost()}
	}
	c.detector.Update(c.budget.Pending(), c.budget.Capacity())

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.budget.Release(p.tenant, n)
		return ErrShuttingDown
	}
	c.queue = append(c.queue, p)
	c.count += n
	if c.count >= c.srv.cfg.MaxBatch || c.srv.cfg.MaxWait <= 0 {
		batch := c.takeLocked()
		c.mu.Unlock()
		c.flush(batch)
	} else {
		c.armLocked(p)
		c.mu.Unlock()
	}

	select {
	case <-p.done:
		return p.err
	case <-p.ctx.Done():
		// Abandoned before the flush reached this caller: the flush will
		// drop (pre-start) or still compute (mid-flight) the targets, and
		// releases their budget either way; this caller stops waiting now.
		return p.ctx.Err()
	}
}

// armLocked (re)arms the window timer: a fresh window fires MaxWait from
// now, and any waiter with a deadline pulls the fire time forward to
// deadline − expected flush cost, so the oldest waiter still has the flush
// itself paid for out of its remaining budget. Callers hold c.mu.
func (c *coalescer) armLocked(p *pending) {
	fire := c.fireAt
	if c.timer == nil {
		fire = time.Now().Add(c.srv.cfg.MaxWait)
	}
	if !p.deadline.IsZero() {
		if cand := p.deadline.Add(-c.expectedFlushCost()); cand.Before(fire) {
			fire = cand
		}
	}
	if c.timer != nil && !fire.Before(c.fireAt) {
		return // the armed timer already fires soon enough
	}
	if c.timer != nil {
		c.timer.Stop()
	}
	c.fireAt = fire
	gen := c.gen
	c.timer = time.AfterFunc(time.Until(fire), func() { c.timerFlush(gen) })
}

// expectedFlushCost estimates the next flush's latency from the EWMA of
// recent flushes (0 before the first flush: the window then flushes right
// at the deadline, and the EWMA takes over from the second flush on).
func (c *coalescer) expectedFlushCost() time.Duration {
	return c.detector.FlushEWMA()
}

// takeLocked closes the open window and returns it; callers hold c.mu.
func (c *coalescer) takeLocked() []*pending {
	batch := c.queue
	c.queue = nil
	c.count = 0
	c.gen++
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	c.fireAt = time.Time{}
	return batch
}

// timerFlush fires when a window hits its deadline; a generation mismatch
// means the window already flushed on size and the timer lost the race.
func (c *coalescer) timerFlush(gen int) {
	c.mu.Lock()
	if gen != c.gen {
		c.mu.Unlock()
		return
	}
	batch := c.takeLocked()
	c.mu.Unlock()
	c.flush(batch)
}

// flush serves one closed window as a single Infer batch and hands each
// caller its span of the shared result. Callers whose context is already
// done are dropped first — they get their context error and their targets
// never occupy Infer batch slots. Budget taken at submit is returned here:
// at drop time for expired callers, after the Infer for the rest (the
// "in-flight flush" share of the pending budget).
func (c *coalescer) flush(batch []*pending) {
	if len(batch) == 0 {
		return
	}
	live := batch[:0]
	for _, p := range batch {
		if err := p.ctx.Err(); err != nil {
			p.err = err
			c.budget.Release(p.tenant, len(p.targets))
			c.srv.m.dropped.Inc()
			close(p.done)
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		c.detector.Update(c.budget.Pending(), c.budget.Capacity())
		return
	}
	// Close each waiter's queue span (enqueue → flush start), then record
	// batch assembly in the representative trace — the first live waiter's,
	// which also carries the engine/router spans for this flush (one flush
	// is one backend call, so its stages belong to one stitched trace).
	flushAt := time.Now()
	for _, p := range live {
		p.tr.EndAt(obs.StageQueue, 0, -1, p.enq, flushAt)
	}
	rep := live[0].tr
	asmAt := flushAt
	total := 0
	for _, p := range live {
		p.lo = total
		total += len(p.targets)
	}
	all := make([]int, 0, total)
	for _, p := range live {
		all = append(all, p.targets...)
	}
	rep.End(obs.StageAssemble, 0, -1, asmAt)

	opt := c.srv.cfg.Opt
	opt.BatchSize = 0 // one shared supporting ball is the whole point

	start := time.Now()
	c.graphMu.RLock()
	res, err := c.infer(live, all, opt)
	if err == nil && c.srv.cache != nil {
		// Fill the result cache under the same read lock as the Infer call:
		// a delta (write lock) can then never slip between compute and fill,
		// so a fill can never resurrect an answer the delta invalidated.
		for i, v := range all {
			c.srv.cache.Put(v, cache.Entry{
				Pred:  int32(res.Pred[i]),
				Depth: int32(res.Depths[i]),
			})
		}
	}
	c.graphMu.RUnlock()
	c.detector.ObserveFlush(time.Since(start))

	// Count, then wake: a client that reads /stats right after its reply
	// must find its own request in the totals. An errored flush stays on
	// the books — the work was attempted — under result="error".
	m := c.srv.m
	m.inferRequests.Add(uint64(len(live)))
	m.inferTargets.Add(uint64(total))
	if err == nil {
		m.inferOK.Inc()
		m.addMACs(res.MACs)
	} else {
		m.inferErr.Inc()
	}
	for _, p := range live {
		p.res, p.err = res, err
		// Release before waking the caller: a closed-loop client that
		// resubmits the instant it wakes must find its own slot free.
		c.budget.Release(p.tenant, len(p.targets))
		close(p.done)
	}
	c.detector.Update(c.budget.Pending(), c.budget.Capacity())
}

// infer dispatches one flushed batch to the backend under a context bounded
// by the *loosest* live waiter's deadline — the batch is shared, so it must
// be allowed to run as long as any caller still has budget, but a sharded
// backend should never keep remote workers computing past the point where
// every caller has given up. If any waiter carries no deadline the batch
// runs unbounded. Callers hold graphMu.RLock.
func (c *coalescer) infer(live []*pending, all []int, opt core.InferenceOptions) (*core.Result, error) {
	// The representative trace rides the flush context, so the backend's
	// stages (engine, router fan-out, transport) record into it.
	base := obs.ContextWithTrace(context.Background(), live[0].tr)
	var latest time.Time
	for _, p := range live {
		if p.deadline.IsZero() {
			return c.srv.backend.InferContext(base, all, opt)
		}
		if p.deadline.After(latest) {
			latest = p.deadline
		}
	}
	ctx, cancel := context.WithDeadline(base, latest)
	defer cancel()
	return c.srv.backend.InferContext(ctx, all, opt)
}

// close flushes the open window so no caller is left parked on a timer;
// submits arriving afterwards are rejected with ErrShuttingDown before
// they enqueue (surfaced as 503), so a closed server never runs new work.
func (c *coalescer) close() {
	c.mu.Lock()
	c.closed = true
	batch := c.takeLocked()
	c.mu.Unlock()
	c.flush(batch)
}
