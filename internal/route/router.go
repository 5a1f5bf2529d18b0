package route

// Router is the stateless front tier of a sharded scserved fleet. It
// consistent-hashes each request's canonical contract spec hash — the
// same sha256 key the backends use for their compiled-engine LRU —
// onto a rendezvous ring of backends, so every spec lands on the one
// backend whose cache is hot for it. Requests that carry no parseable
// spec (health probes, the survey endpoints, malformed bodies the
// backend will reject anyway) round-robin instead.
//
// Membership is health-aware: a per-backend resilience.Breaker absorbs
// both forward outcomes and background /readyz polls. Transport errors,
// per-try timeouts, and 502/503 responses count as failures;
// FailureThreshold of them in a row eject the backend (breaker opens)
// and the poll loop's next Allow after the cooldown doubles as the
// readmission probe. While a backend is ejected, its keys fail over to
// the next backend in their rendezvous order — and snap back, cache
// intact, on readmission.
//
// Gray failures — a backend that accepts connections but answers
// slowly or never — are handled by three mechanisms the crash path
// alone cannot provide:
//
//   - every forward runs under a per-try timeout derived from the
//     remaining request deadline split across the backends left in the
//     preference order, so a hung backend counts as a breaker failure
//     and the request moves down the ranking instead of stalling;
//   - idempotent requests are hedged: after a p95-based delay (per
//     backend, from a decaying latency digest fed by the same
//     observation point as the upstream histogram) one speculative
//     second attempt goes to the next-ranked backend, first usable
//     response wins, the loser is canceled;
//   - failover retries and hedges share one resilience.Budget token
//     bucket refilled as a fraction of primary requests, so a
//     fleet-wide brownout degrades to single-attempt behavior instead
//     of a retry storm.
//
// The router stamps X-SCBill-Deadline-Ms (the remaining budget) on
// every forward; backends parse it into the request context and stop
// evaluating bills the caller has already abandoned.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/textproto"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/contract"
	"repro/internal/resilience"
	"repro/internal/wire"
)

// DeadlineHeader is wire.DeadlineHeader, the remaining request budget
// the router stamps on every forward.
const DeadlineHeader = wire.DeadlineHeader

// OriginHeader labels error responses with the layer that produced
// them, so load harness assertions can target the right one: "router"
// for errors the router originated (no healthy backend, deadline
// expired, retry budget spent), "upstream" for backend 502/503s the
// router relays truthfully.
const (
	OriginHeader   = "X-SCRoute-Origin"
	OriginRouter   = "router"
	OriginUpstream = "upstream"
)

// Config tunes a Router. Backends is required; everything else has a
// usable zero value.
type Config struct {
	// Backends are the scserved base URLs (e.g. http://127.0.0.1:9101).
	// The URL string is also the backend's rendezvous identity, so keep
	// it stable across restarts.
	Backends []string
	// Client issues forwards and health polls; nil selects a client
	// with no overall timeout (per-request contexts bound forwards).
	Client *http.Client
	// PollInterval is the /readyz poll cadence; <= 0 selects 1 s. Each
	// poll loop jitters its own cadence ±10% so fleet probes do not
	// synchronize.
	PollInterval time.Duration
	// FailureThreshold and OpenTimeout tune each backend's breaker;
	// zero values select resilience defaults (5 failures, 30 s).
	FailureThreshold int
	OpenTimeout      time.Duration
	// RequestTimeout bounds one proxied request end to end when the
	// client sends no X-SCBill-Deadline-Ms of its own; <= 0 selects
	// 30 s. A client header below it tightens the deadline.
	RequestTimeout time.Duration
	// TryTimeoutFloor and TryTimeoutCeil clamp the per-try timeout,
	// which is the remaining deadline split evenly across the backends
	// left in the preference order. The floor keeps a near-deadline
	// request from starving its last try; the ceiling is the gray-
	// failure detector — a backend slower than it counts as a breaker
	// failure. <= 0 select 250 ms and 10 s.
	TryTimeoutFloor time.Duration
	TryTimeoutCeil  time.Duration
	// HedgeDelayFloor floors the p95-based hedge delay so an empty or
	// very fast digest cannot hedge every request; <= 0 selects 25 ms.
	HedgeDelayFloor time.Duration
	// DisableHedge turns speculative second attempts off; failover
	// retries after hard failures still run, budget permitting.
	DisableHedge bool
	// BudgetRatio and BudgetBurst tune the shared retry/hedge token
	// budget; zero values select the resilience defaults (0.1 tokens
	// earned per primary request, burst 10).
	BudgetRatio float64
	BudgetBurst float64
	// Logger, when set, logs ejections and readmissions.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.PollInterval <= 0 {
		c.PollInterval = time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.TryTimeoutFloor <= 0 {
		c.TryTimeoutFloor = 250 * time.Millisecond
	}
	if c.TryTimeoutCeil <= 0 {
		c.TryTimeoutCeil = 10 * time.Second
	}
	if c.TryTimeoutCeil < c.TryTimeoutFloor {
		c.TryTimeoutCeil = c.TryTimeoutFloor
	}
	if c.HedgeDelayFloor <= 0 {
		c.HedgeDelayFloor = 25 * time.Millisecond
	}
	return c
}

// backend is one ring member: its identity, breaker, last-poll
// readiness (exported on /metrics; eligibility is the breaker's call),
// and the decaying latency digest the hedge delay is derived from.
type backend struct {
	name    string
	breaker *resilience.Breaker
	ready   atomic.Bool
	latency digest
}

// Router is an http.Handler that forwards requests to a fleet of
// scserved backends. Construct with NewRouter; optionally call Start
// to begin background health polling.
type Router struct {
	cfg      Config
	client   *http.Client
	backends []*backend
	names    []string
	byName   map[string]*backend
	budget   *resilience.Budget
	rr       atomic.Uint64
	metrics  *metrics
	mux      *http.ServeMux

	// settleWG tracks the background goroutines that settle hedge
	// losers after a winner is relayed. Wait blocks until they drain,
	// so shutdown never strands a loser mid-settlement.
	settleWG sync.WaitGroup
}

// NewRouter builds a router over the configured backends.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("route: no backends configured")
	}
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:    cfg,
		client: cfg.Client,
		byName: make(map[string]*backend, len(cfg.Backends)),
		budget: resilience.NewBudget(resilience.BudgetConfig{Ratio: cfg.BudgetRatio, Burst: cfg.BudgetBurst}),
		mux:    http.NewServeMux(),
	}
	if rt.client == nil {
		rt.client = &http.Client{}
	}
	for _, name := range cfg.Backends {
		if _, dup := rt.byName[name]; dup {
			return nil, fmt.Errorf("route: duplicate backend %q", name)
		}
		if u, err := url.Parse(name); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("route: backend %q is not an http(s) base URL", name)
		}
		b := &backend{name: name}
		b.ready.Store(true) // optimistic until the first poll says otherwise
		b.breaker = resilience.NewBreaker(resilience.BreakerConfig{
			FailureThreshold: cfg.FailureThreshold,
			OpenTimeout:      cfg.OpenTimeout,
			OnTransition:     rt.onTransition(name),
		})
		rt.backends = append(rt.backends, b)
		rt.names = append(rt.names, name)
		rt.byName[name] = b
	}
	rt.metrics = newMetrics(rt)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/readyz", rt.handleReadyz)
	rt.mux.Handle("/metrics", rt.metrics)
	rt.mux.HandleFunc("/", rt.handleProxy)
	return rt, nil
}

// onTransition builds the breaker callback for one backend: count
// ejections and log membership changes.
func (rt *Router) onTransition(name string) func(from, to resilience.State) {
	return func(from, to resilience.State) {
		switch {
		case to == resilience.Open:
			rt.metrics.ejections.With(name).Add(1)
			if rt.cfg.Logger != nil {
				rt.cfg.Logger.Warn("backend ejected", "backend", name, "from", from.String())
			}
		case to == resilience.Closed && from != resilience.Closed:
			if rt.cfg.Logger != nil {
				rt.cfg.Logger.Info("backend readmitted", "backend", name)
			}
		}
	}
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Wait blocks until every in-flight loser-settlement goroutine has
// drained. Call it after the HTTP server has shut down: with no new
// requests arriving, the settle population only shrinks, and each
// pending loser is unblocked by the cancel that cancelAndDrain already
// issued.
func (rt *Router) Wait() { rt.settleWG.Wait() }

// Start launches the background /readyz poll loops; they stop when ctx
// is canceled. Without Start the router still routes — membership then
// reacts to forward outcomes only.
func (rt *Router) Start(ctx context.Context) {
	for _, b := range rt.backends {
		go rt.pollLoop(ctx, b)
	}
}

// pollLoop probes one backend's /readyz through its breaker until ctx
// is canceled. While the breaker is open the Allow call is rejected
// (the backend stays ejected for free); the first Allow after the
// cooldown claims the half-open probe slot, so the poll cadence is
// also the readmission cadence. Each wait is jittered ±10% (seeded
// from the backend's ring identity, so a fleet's cadences are distinct
// but reproducible) to keep the fleet's probes from synchronizing into
// a thundering herd on a recovering backend.
func (rt *Router) pollLoop(ctx context.Context, b *backend) {
	rng := newPollRNG(b.name)
	rt.pollOnce(ctx, b)
	t := time.NewTimer(jitteredInterval(rt.cfg.PollInterval, rng))
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.pollOnce(ctx, b)
			t.Reset(jitteredInterval(rt.cfg.PollInterval, rng))
		}
	}
}

// newPollRNG seeds one backend's jitter source from its ring identity,
// so a fleet's poll cadences are distinct but reproducible.
func newPollRNG(name string) *rand.Rand {
	return rand.New(rand.NewSource(int64(score(name, "poll-jitter"))))
}

// jitteredInterval spreads d uniformly over ±10%.
func jitteredInterval(d time.Duration, rng *rand.Rand) time.Duration {
	return time.Duration(float64(d) * (0.9 + 0.2*rng.Float64()))
}

// pollOnce sends one /readyz probe. The request is constructed before
// the breaker is consulted: a local construction error says nothing
// about the backend's health, so it must neither count as a breaker
// failure nor burn the half-open probe slot.
func (rt *Router) pollOnce(ctx context.Context, b *backend) {
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.PollInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, b.name+"/readyz", nil)
	if err != nil {
		if rt.cfg.Logger != nil {
			rt.cfg.Logger.Warn("poll request construction failed", "backend", b.name, "err", err)
		}
		return
	}
	done, err := b.breaker.Allow()
	if err != nil {
		return // open and cooling down: stay ejected
	}
	resp, err := rt.client.Do(req)
	ok := err == nil && resp.StatusCode == http.StatusOK
	if resp != nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	b.ready.Store(ok)
	done(ok)
}

// eligible reports whether the backend currently accepts forwards: the
// last /readyz poll passed and its breaker is not open. (Half-open
// counts — a forward is as good a probe as a poll.) Gating on the poll
// result matters for gray failure: a browned-out backend whose hedged
// losers keep getting canceled (recorded as breaker successes, so the
// failure streak never builds) is still pulled from rotation within
// one poll period, because its probes run under the poll-interval
// timeout and fail. Without polls (Start not called) ready keeps its
// optimistic initial value and the breaker alone decides.
func (b *backend) eligible() bool {
	return b.ready.Load() && b.breaker.State() != resilience.Open
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports 200 while at least one backend is eligible.
func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	for _, b := range rt.backends {
		if b.eligible() {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ok")
			return
		}
	}
	writeRouterError(w, http.StatusServiceUnavailable, "no healthy backend")
}

// routingKey derives the consistent-hash key from a request body: the
// canonical hash of the contract spec the backend bills it against
// (`contract`, else `contracts[0]` for batch). This is exactly the
// backends' engine-LRU key, which is what makes sharding keep their
// caches hot. The body is scanned, not decoded: one pass over the
// top-level object with the backends' member-matching rule (keys
// case-folded, the last duplicate wins, the first JSON value counts and
// trailing bytes are ignored, as json.Decoder does), then
// ParseSpec/HashSpec on the spec's bytes alone. Every other member is
// only stepped over by its structure (wire.Extent), not validated: a
// body the backend bills is valid JSON, on which Extent ends each value
// where Skip would, and a body it rejects gets the same 4xx from every
// backend, whichever the key picks. Returns ok=false when the body has
// no parseable spec.
func routingKey(body []byte) (string, bool) {
	i := wire.Space(body, 0)
	if i == len(body) || body[i] != '{' {
		return "", false
	}
	var single, first []byte
	_, err := wire.Object(body, i, 0, func(key []byte, _, v int) (int, error) {
		switch {
		case wire.Key(key, "contract"):
			end, err := wire.Skip(body, v, 1)
			single = body[v:end]
			return end, err
		case wire.Key(key, "contracts"):
			first = nil
			if body[v] != '[' {
				return wire.Skip(body, v, 1)
			}
			return wire.Array(body, v, 1, func(e int) (int, error) {
				end, err := wire.Skip(body, e, 2)
				if first == nil {
					first = body[e:end]
				}
				return end, err
			})
		}
		return wire.Extent(body, v, 1)
	})
	raw := single
	if raw == nil {
		raw = first
	}
	if err != nil || raw == nil {
		return "", false
	}
	spec, err := contract.ParseSpec(raw)
	if err != nil {
		return "", false
	}
	key, err := contract.HashSpec(spec)
	if err != nil {
		return "", false
	}
	return key, true
}

// order computes the forward preference for one request: rendezvous
// rank for keyed requests, a rotating round-robin order otherwise.
func (rt *Router) order(body []byte) []string {
	if key, ok := routingKey(body); ok {
		return Rank(rt.names, key)
	}
	start := int(rt.rr.Add(1)-1) % len(rt.names)
	out := make([]string, 0, len(rt.names))
	for i := range rt.names {
		out = append(out, rt.names[(start+i)%len(rt.names)])
	}
	return out
}

// hedgeable reports whether a request may be speculatively duplicated:
// reads, and the POST endpoints that are pure computations over their
// body (billing, advice, optimization) — re-issuing them has no side
// effect beyond the compute itself.
func hedgeable(r *http.Request) bool {
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		return true
	case http.MethodPost:
		switch r.URL.Path {
		case "/v1/bill", "/v1/bill/batch", "/v1/advise", "/v1/optimize":
			return true
		}
	}
	return false
}

// attempt is one forward in flight and its settled outcome.
type attempt struct {
	try
	cancel   context.CancelFunc
	resp     *http.Response
	err      error
	elapsed  time.Duration
	timedOut bool
}

// usable reports whether the attempt produced a response worth
// relaying: anything but a transport error or a 502/503 (which are
// failover triggers, not answers — unless every backend agrees).
func (at *attempt) usable() bool {
	return at.err == nil &&
		at.resp.StatusCode != http.StatusBadGateway &&
		at.resp.StatusCode != http.StatusServiceUnavailable
}

// handleProxy forwards one request along its preference order with
// per-try timeouts, budget-gated failover retries and hedges, as its
// plan (plan.go) admits them. A transport error, per-try timeout, or
// 502/503 counts against the backend's breaker and moves on to the next
// eligible backend; any other response — 200s, 400s, and crucially 429
// shed — relays as-is and counts as backend success. When every backend
// fails, the last upstream 502/503 relays (it is the truth); with no
// response at all the router answers 502.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	// The body is buffered once, for the routing key and for retries,
	// under the backends' bound.
	read, err := wire.ReadBody(w, r)
	if err != nil {
		rt.metrics.observeRequest(r.URL.Path, http.StatusBadRequest)
		writeRouterError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	body := &forwardBody{Body: read}
	body.hold()
	defer body.drop()

	// Request deadline: a propagated X-SCBill-Deadline-Ms tightens the
	// configured timeout, and a spent one short-circuits to 504 without
	// touching a backend — there is no point starting work the caller
	// has already abandoned.
	budget := rt.cfg.RequestTimeout
	if ms, ok := wire.Deadline(r.Header); ok {
		if ms <= 0 {
			rt.metrics.deadlineExpired.Add(1)
			rt.metrics.observeRequest(r.URL.Path, http.StatusGatewayTimeout)
			writeRouterError(w, http.StatusGatewayTimeout,
				fmt.Sprintf("propagated deadline already expired (%d ms remaining)", ms))
			return
		}
		if d := time.Duration(ms) * time.Millisecond; d < budget {
			budget = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()
	deadline, _ := ctx.Deadline()

	p := rt.newPlan(rt.order(body.Bytes), deadline, hedgeable(r))
	// One send per attempt, and a plan tries each backend at most once.
	results := make(chan *attempt, len(rt.names))
	var started []*attempt
	launch := func(t try, ok bool) {
		if !ok {
			return
		}
		at := &attempt{try: t}
		actx, acancel := context.WithCancel(ctx)
		at.cancel = acancel
		started = append(started, at)
		body.hold() // runAttempt drops it
		go rt.runAttempt(at, buildForward(actx, r, t.b, body), body, results)
	}
	launch(p.start(time.Now()))
	var hedgeC <-chan time.Time
	if p.hedgeIn > 0 {
		ht := time.NewTimer(p.hedgeIn)
		defer ht.Stop()
		hedgeC = ht.C
	}

	var last *attempt // the most recent upstream 502/503
	var lastBody []byte
	for p.inflight > 0 {
		select {
		case <-ctx.Done():
			rt.cancelAndDrain(started, nil, p.inflight, results)
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				rt.metrics.observeRequest(r.URL.Path, http.StatusGatewayTimeout)
				writeRouterError(w, http.StatusGatewayTimeout,
					fmt.Sprintf("request deadline (%s) exhausted before any backend answered", budget))
			} else {
				// Client hung up: nobody is left to answer.
				rt.metrics.observeRequest(r.URL.Path, 499)
			}
			return
		case now := <-hedgeC:
			hedgeC = nil
			launch(p.hedge(now))
		case at := <-results:
			if at.usable() {
				p.won()
				rt.cancelAndDrain(started, at, p.inflight, results)
				rt.win(w, r, at)
				return
			}
			code := 0
			if at.resp != nil {
				code = at.resp.StatusCode
				last = at
				lastBody, _ = io.ReadAll(io.LimitReader(at.resp.Body, wire.MaxBodyBytes))
			} else if at.timedOut {
				rt.metrics.tryTimeouts.Add(1)
			}
			rt.metrics.observeBackend(at.b.name, code)
			settle(at)
			launch(p.failed(time.Now()))
		}
	}

	if last != nil {
		copyHeader(w.Header(), last.resp.Header)
		w.Header().Set(OriginHeader, OriginUpstream)
		w.WriteHeader(last.resp.StatusCode)
		_, _ = w.Write(lastBody)
		rt.metrics.observeRequest(r.URL.Path, last.resp.StatusCode)
		return
	}
	rt.metrics.noBackend.Add(1)
	rt.metrics.observeRequest(r.URL.Path, http.StatusBadGateway)
	writeRouterError(w, http.StatusBadGateway, "no healthy backend")
}

// runAttempt issues one forward. The per-try timer guards the time to
// response headers: a hung or browned-out backend trips it, the
// attempt's context is canceled, and the outcome reports timedOut so
// it counts as a breaker failure. Once headers are in, the winner's
// body relay runs under the request deadline, not the per-try clock.
// The attempt's reference to the request body is dropped when the
// round trip returns, before the outcome is sent: the transport may
// call GetBody until then, and no later.
func (rt *Router) runAttempt(at *attempt, req *http.Request, body *forwardBody, out chan<- *attempt) {
	var fired atomic.Bool
	timer := time.AfterFunc(at.timeout, func() {
		fired.Store(true)
		at.cancel()
	})
	start := time.Now()
	resp, err := rt.client.Do(req)
	body.drop()
	timer.Stop()
	at.elapsed = time.Since(start)
	if fired.Load() {
		// The timer fired: even if a response squeaked in, its context
		// is canceled and the body is poisoned — count it as the
		// timeout it effectively was.
		at.timedOut = true
		if resp != nil {
			resp.Body.Close()
			resp = nil
		}
		if err == nil {
			err = fmt.Errorf("route: per-try timeout after %s", at.timeout)
		} else {
			err = fmt.Errorf("route: per-try timeout after %s: %w", at.timeout, err)
		}
	}
	at.resp, at.err = resp, err
	out <- at
}

// win relays the first usable response: feed the latency digest and
// stream the body to the client.
func (rt *Router) win(w http.ResponseWriter, r *http.Request, at *attempt) {
	rt.metrics.observeBackend(at.b.name, at.resp.StatusCode)
	rt.metrics.upstream.Observe(at.elapsed.Seconds())
	at.b.latency.Observe(at.elapsed.Seconds())
	if at.hedge {
		rt.metrics.hedgeWins.Add(1)
	}
	copyHeader(w.Header(), at.resp.Header)
	w.WriteHeader(at.resp.StatusCode)
	_, relayErr := io.Copy(w, at.resp.Body)
	// The backend served us fine either way: a relay error means the
	// CLIENT hung up mid-copy, which must not eject the backend.
	settle(at)
	if relayErr != nil && rt.cfg.Logger != nil {
		rt.cfg.Logger.Info("client hangup mid-relay", "backend", at.b.name, "path", r.URL.Path)
	}
	rt.metrics.observeRequest(r.URL.Path, at.resp.StatusCode)
}

// cancelAndDrain cancels every started attempt but the winner and
// settles the pending outcomes still to arrive on a background
// goroutine, so a hedge loser's context is released promptly without
// blocking the client's response. The goroutine is registered on the
// router's settle WaitGroup: every attempt sends exactly one result
// (runAttempt's send is unconditional and the channel is buffered for
// the attempt count), so the loop terminates once the losers finish —
// and Wait() holds shutdown open until each loser's breaker outcome and
// body close have landed.
func (rt *Router) cancelAndDrain(started []*attempt, winner *attempt, pending int, results <-chan *attempt) {
	for _, at := range started {
		if at != winner {
			at.cancel()
		}
	}
	if pending == 0 {
		return
	}
	rt.settleWG.Add(1)
	go func() {
		defer rt.settleWG.Done()
		for i := 0; i < pending; i++ {
			settle(<-results)
		}
	}()
}

// settle scores a finished attempt on its backend's breaker and
// releases it, the same way whether it won, failed or lost a hedge
// race. A usable response counts as success, even a late one; a
// 502/503, a transport error or a per-try timeout counts as failure; a
// cancellation the router caused (a hedge loser, or a client that hung
// up) is not held against the backend.
func settle(at *attempt) {
	ok := at.usable() || (at.resp == nil && !at.timedOut && errors.Is(at.err, context.Canceled))
	if at.resp != nil {
		at.resp.Body.Close()
	}
	at.done(ok)
	at.cancel()
}

// buildForward constructs the request to one backend: the client's
// path, still escaped as the client sent it, and raw query on the
// backend's base URL, stamped with the remaining deadline budget so the
// backend stops evaluating bills the caller has already abandoned. The
// body goes with its Content-Length, so the backend reads it into one
// buffer of that size rather than doubling one from 512 bytes.
func buildForward(ctx context.Context, r *http.Request, b *backend, body *forwardBody) *http.Request {
	req, err := http.NewRequestWithContext(ctx, r.Method, b.name, nil)
	if err != nil {
		// NewRouter parsed b.name, and net/http hands handlers only
		// valid methods.
		panic(fmt.Sprintf("route: forward to %s: %v", b.name, err))
	}
	if len(body.Bytes) > 0 {
		req.ContentLength = int64(len(body.Bytes))
		req.Body = body.reader()
		req.GetBody = func() (io.ReadCloser, error) { return body.reader(), nil }
	}
	req.URL.RawPath = req.URL.EscapedPath() + r.URL.EscapedPath()
	req.URL.Path += r.URL.Path
	req.URL.RawQuery = r.URL.RawQuery
	copyHeader(req.Header, r.Header)
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
	}
	return req
}

// forwardBody is the router's one copy of a request body, which every
// forward of it reads. Its buffer goes back to wire's pool when the
// last reference drops: handleProxy holds one until it returns, each
// attempt one until its round trip returns (the transport may call
// GetBody until then), and each reader handed to the transport, the
// first and any GetBody copy, one until the transport closes it. That
// close can come after the round trip has returned: a backend may
// answer before it has read a body net/http is still writing to it.
type forwardBody struct {
	wire.Body
	refs atomic.Int32
}

func (fb *forwardBody) hold() { fb.refs.Add(1) }

func (fb *forwardBody) drop() {
	if fb.refs.Add(-1) == 0 {
		fb.Release()
	}
}

// reader returns a reader over the body that holds a reference until
// it is closed.
func (fb *forwardBody) reader() io.ReadCloser {
	fb.hold()
	return &bodyReader{body: fb}
}

var errBodyClosed = errors.New("route: read from a closed forward body")

// bodyReader reads a forwardBody for the transport. Its lock keeps a
// Read from copying out of a buffer that a concurrent Close has just
// released.
type bodyReader struct {
	mu   sync.Mutex
	body *forwardBody // nil once closed
	off  int
}

func (br *bodyReader) Read(p []byte) (int, error) {
	br.mu.Lock()
	defer br.mu.Unlock()
	switch {
	case br.body == nil:
		return 0, errBodyClosed
	case br.off == len(br.body.Bytes):
		return 0, io.EOF
	}
	n := copy(p, br.body.Bytes[br.off:])
	br.off += n
	return n, nil
}

// Close drops the reader's reference; closing it again does nothing.
func (br *bodyReader) Close() error {
	br.mu.Lock()
	fb := br.body
	br.body = nil
	br.mu.Unlock()
	if fb != nil {
		fb.drop()
	}
	return nil
}

// hopByHopHeaders are the RFC 9110 §7.6.1 connection-level fields a
// proxy must consume rather than forward: they describe one TCP hop,
// and relaying them corrupts the next (a forwarded Transfer-Encoding
// or Connection: close breaks keep-alive and framing on the far side).
var hopByHopHeaders = []string{
	"Connection",
	"Keep-Alive",
	"Proxy-Authenticate",
	"Proxy-Authorization",
	"Proxy-Connection",
	"Te",
	"Trailer",
	"Transfer-Encoding",
	"Upgrade",
}

// copyHeader copies end-to-end headers from src to dst, dropping the
// hop-by-hop set plus any field nominated by a Connection header (RFC
// 9110: such fields are hop-by-hop by declaration). Used in both
// directions — forwarding the client's headers upstream and relaying
// the backend's headers down. It allocates nothing beyond dst's values
// unless a Connection header names a field outside the set.
func copyHeader(dst, src http.Header) {
	var named []string
	for _, v := range src.Values("Connection") {
		for v != "" {
			var name string
			name, v, _ = strings.Cut(v, ",")
			name = strings.TrimSpace(name)
			if name == "" || slices.ContainsFunc(hopByHopHeaders, func(h string) bool { return strings.EqualFold(h, name) }) {
				continue
			}
			named = append(named, textproto.CanonicalMIMEHeaderKey(name))
		}
	}
	for k, vs := range src {
		if ck := textproto.CanonicalMIMEHeaderKey(k); slices.Contains(hopByHopHeaders, ck) || slices.Contains(named, ck) {
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// writeRouterError writes an error the router itself originated,
// labeled so load-harness taxonomies can tell it from a relayed
// upstream failure.
func writeRouterError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set(OriginHeader, OriginRouter)
	writeError(w, code, msg)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{msg})
}
