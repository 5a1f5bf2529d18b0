package route

// The forwarding policy of one proxied request, kept apart from the I/O
// that carries it out. A plan decides which backend each attempt goes
// to and claims its breaker, how long the attempt may take, when the
// one hedge is due, and whether the shared token budget pays for a
// hedge or a failover; it counts retries, hedges and refusals on
// /metrics. handleProxy owns the sockets, goroutines and timers and
// reports each event back with the time it happened. The plan reads no
// clock and starts nothing, so its decisions are table-tested without
// a listener (plan_test.go).

import "time"

// try is one attempt a plan admits: its backend, the breaker claim the
// caller settles exactly once, and the per-try timeout.
type try struct {
	b       *backend
	done    func(success bool)
	timeout time.Duration
	hedge   bool
}

// plan is the forward policy of one request over its preference order.
type plan struct {
	rt        *Router
	order     []string
	next      int // index in order of the next candidate
	deadline  time.Time
	hedgeable bool
	// hedgeIn is the delay of the armed hedge after the primary starts;
	// 0 once it is spent or when none is armed.
	hedgeIn  time.Duration
	inflight int // attempts started whose outcome has not arrived
}

func (rt *Router) newPlan(order []string, deadline time.Time, hedgeable bool) *plan {
	return &plan{rt: rt, order: order, deadline: deadline, hedgeable: hedgeable}
}

// start claims the primary attempt at now. The request earns the budget
// its primary share whether or not a backend is left. A hedgeable
// request with another candidate behind the primary arms one hedge at
// the primary backend's observed p95, floored so an empty or very fast
// digest cannot hedge every request and capped at the per-try ceiling
// (past that the try timeout handles it).
func (p *plan) start(now time.Time) (try, bool) {
	p.rt.budget.OnPrimary()
	t, ok := p.claim(now, false)
	cfg := &p.rt.cfg
	if ok && p.hedgeable && !cfg.DisableHedge && p.next < len(p.order) {
		p95 := time.Duration(t.b.latency.Quantile(0.95) * float64(time.Second))
		p.hedgeIn = clamp(p95, cfg.HedgeDelayFloor, cfg.TryTimeoutCeil)
	}
	return t, ok
}

// hedge is the armed hedge falling due at now: one speculative attempt
// on the next candidate while an attempt is still in flight, budget
// permitting. A plan hedges at most once.
func (p *plan) hedge(now time.Time) (try, bool) {
	if p.hedgeIn == 0 || p.inflight == 0 {
		return try{}, false
	}
	p.hedgeIn = 0
	return p.extra(now, true)
}

// won records that an attempt in flight answered usably; the request
// is settled and the attempts still in flight are losers.
func (p *plan) won() {
	if p.inflight > 0 {
		p.inflight--
	}
}

// failed records at now that an attempt in flight failed. With nothing
// else in flight and a candidate left, the request fails over to it,
// budget permitting: under a fleet-wide brownout the budget drains and
// requests degrade to one attempt instead of a retry storm.
func (p *plan) failed(now time.Time) (try, bool) {
	if p.inflight == 0 {
		return try{}, false
	}
	p.inflight--
	if p.inflight > 0 {
		return try{}, false
	}
	return p.extra(now, false)
}

// extra claims a hedge or failover attempt when a candidate is left and
// the budget pays for it.
func (p *plan) extra(now time.Time, hedge bool) (try, bool) {
	if p.next >= len(p.order) {
		return try{}, false
	}
	m := p.rt.metrics
	if !p.rt.budget.TryAcquire() {
		m.budgetExhausted.Add(1)
		return try{}, false
	}
	t, ok := p.claim(now, hedge)
	switch {
	case ok && hedge:
		m.hedges.Add(1)
	case ok:
		m.retries.Add(1)
	}
	return t, ok
}

// claim walks the order to the next eligible backend whose breaker
// admits an attempt. The per-try timeout splits what is left of the
// deadline across the candidates left, this one included, clamped to
// [TryTimeoutFloor, TryTimeoutCeil].
func (p *plan) claim(now time.Time, hedge bool) (try, bool) {
	for p.next < len(p.order) {
		left := len(p.order) - p.next
		b := p.rt.byName[p.order[p.next]]
		p.next++
		if !b.eligible() {
			continue
		}
		done, err := b.breaker.Allow()
		if err != nil {
			continue // lost the race to an ejection or the probe slot
		}
		p.inflight++
		per := clamp(p.deadline.Sub(now)/time.Duration(left), p.rt.cfg.TryTimeoutFloor, p.rt.cfg.TryTimeoutCeil)
		return try{b: b, done: done, timeout: per, hedge: hedge}, true
	}
	return try{}, false
}

func clamp(d, lo, hi time.Duration) time.Duration { return min(max(d, lo), hi) }
