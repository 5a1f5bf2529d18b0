// Package serve is the billing-as-a-service layer: a long-lived HTTP
// daemon exposing the reproduction — bill computation, the survey
// dataset, and the renegotiation advisor — over JSON. The related work
// the paper cites (workload modulation under real-world pricing, demand
// charge reduction via partial execution) assumes an always-available
// pricing oracle operators can query against real tariff structures;
// this package is that oracle over the paper's contract typology.
//
// The service amortizes the hot path the CLI tools pay per invocation:
// compiled contract engines (contract.Engine, ~3.4 ms per year-bill
// after a one-time compile) are cached in an LRU keyed by the canonical
// content hash of the contract spec, so a spec is compiled once and
// billed many times. Expensive endpoints run behind a bounded-
// concurrency admission gate with a finite queue — when the queue is
// full the server sheds load with 429 + Retry-After instead of
// collapsing — and every admitted request carries a deadline that is
// threaded as a context into the billing engine's evaluation loop.
// Shutdown is graceful: new requests are refused while in-flight bills
// drain.
//
// Endpoints:
//
//	POST /v1/bill?monthly=1   contract spec + load profile -> bill JSON
//	POST /v1/bill/batch       one load x N contracts (or N loads x one
//	                          contract) -> per-item bills in one request
//	POST /v1/advise           candidate sweep -> renegotiation advice
//	POST /v1/optimize         load + flexibility envelope -> cheapest
//	                          feasible reshaped schedule and its savings
//	GET  /v1/survey/roster    Table 1
//	GET  /v1/survey/records   Table 2 (+ RNP column)
//	GET  /v1/survey/typology  Figure 1 tree + aggregate counts
//	GET  /healthz             liveness (200 as long as the process serves)
//	GET  /readyz              readiness (503 as soon as draining begins)
//	GET  /metrics             Prometheus text exposition
//
// Dynamic tariffs can bill against a live market feed (Config.PriceFeed,
// a feed.Cached): prices are served fresh, stale within a staleness
// budget when the upstream is flaky, or — once the budget is blown —
// the bill degrades to the contract's declared fixed fallback rate and
// is marked degraded in both body and X-SCBill-Degraded header. A dead
// price feed therefore never turns into a 5xx on /v1/bill.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/contract"
	"repro/internal/feed"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Config tunes the service layer. The zero value is usable: every field
// has a production-lean default applied by NewServer.
type Config struct {
	// MaxConcurrent caps bill/advise evaluations running at once;
	// <= 0 selects GOMAXPROCS.
	MaxConcurrent int
	// QueueDepth is how many admitted requests may wait for an
	// evaluation slot beyond MaxConcurrent before the server sheds
	// load with 429; < 0 means no queue (shed immediately when all
	// slots are busy). 0 selects the default of 64.
	QueueDepth int
	// RequestTimeout bounds one request end to end, queue wait
	// included; the deadline is threaded into engine evaluation.
	// 0 selects 30 s.
	RequestTimeout time.Duration
	// EngineCacheSize caps the compiled-engine LRU; 0 selects 128.
	EngineCacheSize int
	// MonthWorkers is the per-request worker-pool size for monthly
	// billing; 0 lets the engine pick (GOMAXPROCS). Shared servers
	// may want 1–2 so one monthly request does not monopolize cores.
	MonthWorkers int
	// Logger receives one structured line per request (log/slog);
	// nil disables request logging.
	Logger *slog.Logger
	// SlowRequest is the latency at or above which a request is logged
	// at warning level instead of info. 0 selects 1 s; < 0 disables
	// the slow marker (every request logs at info).
	SlowRequest time.Duration
	// PriceFeed, when set, supplies market prices for dynamic tariffs.
	// Requests that pin an explicit flat feed rate bypass it, and specs
	// without dynamic tariffs never consult it. nil keeps the flat
	// reference-feed behavior for every request.
	PriceFeed *feed.Cached
	// FallbackRate is the fixed price dynamic tariffs bill at when the
	// feed is degraded and the spec declares no fallback_rate of its
	// own; <= 0 selects the flat reference rate (contract.FlatFeedRate).
	FallbackRate float64
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	case c.QueueDepth == 0:
		c.QueueDepth = 64
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.EngineCacheSize == 0 {
		c.EngineCacheSize = 128
	}
	switch {
	case c.SlowRequest < 0:
		c.SlowRequest = 0
	case c.SlowRequest == 0:
		c.SlowRequest = time.Second
	}
	if c.FallbackRate <= 0 {
		c.FallbackRate = contract.FlatFeedRate
	}
	return c
}

// Server is the billing service. Create with NewServer, mount via
// Handler, stop with Shutdown.
type Server struct {
	cfg     Config
	cache   *engineCache
	limiter *limiter
	metrics *metrics
	// stages collects per-stage latency spans — the HTTP pipeline's
	// (admission_wait, cache, compile, evaluate, encode) and, because
	// the registry rides the request context into the engine, the
	// billing spans (billing.period, billing.tariff, ...).
	stages  *obs.Registry
	mux     *http.ServeMux
	started time.Time

	mu       sync.Mutex
	draining bool
	inflight int
	drained  chan struct{}

	// billHook, when set (tests), runs inside an admitted /v1/bill
	// request with the request context, after a slot is held and the
	// request counts as in-flight but before evaluation.
	billHook func(ctx context.Context)
}

// NewServer builds a server with the given configuration.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   newEngineCache(cfg.EngineCacheSize),
		limiter: newLimiter(cfg.MaxConcurrent, cfg.QueueDepth),
		stages:  obs.NewRegistry(),
		started: time.Now(),
		drained: make(chan struct{}),
	}
	s.metrics = newMetrics(s)
	s.mux = http.NewServeMux()
	s.mux.Handle("POST /v1/bill", s.instrument("/v1/bill", s.gated("/v1/bill", s.handleBill)))
	s.mux.Handle("POST /v1/bill/batch", s.instrument("/v1/bill/batch", s.gated("/v1/bill/batch", s.handleBillBatch)))
	s.mux.Handle("POST /v1/advise", s.instrument("/v1/advise", s.gated("/v1/advise", s.handleAdvise)))
	s.mux.Handle("POST /v1/optimize", s.instrument("/v1/optimize", s.gated("/v1/optimize", s.handleOptimize)))
	s.mux.Handle("GET /v1/survey/roster", s.instrument("/v1/survey/roster", http.HandlerFunc(s.handleSurveyRoster)))
	s.mux.Handle("GET /v1/survey/records", s.instrument("/v1/survey/records", http.HandlerFunc(s.handleSurveyRecords)))
	s.mux.Handle("GET /v1/survey/typology", s.instrument("/v1/survey/typology", http.HandlerFunc(s.handleSurveyTypology)))
	s.mux.Handle("GET /healthz", s.instrument("/healthz", http.HandlerFunc(s.handleHealthz)))
	s.mux.Handle("GET /readyz", s.instrument("/readyz", http.HandlerFunc(s.handleReadyz)))
	s.mux.Handle("GET /metrics", s.instrument("/metrics", s.metrics))
	return s
}

// Handler returns the root handler to mount on an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Inflight returns the number of requests currently being served by
// gated endpoints.
func (s *Server) Inflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// Shutdown begins draining: gated endpoints refuse new work with 503
// while requests already admitted run to completion. It returns when
// every in-flight request has finished or ctx expires, whichever is
// first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	if s.inflight == 0 {
		s.closeDrainedLocked()
	}
	ch := s.drained
	s.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) closeDrainedLocked() {
	select {
	case <-s.drained:
	default:
		close(s.drained)
	}
}

// beginRequest admits one gated request unless the server is draining.
func (s *Server) beginRequest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight++
	return true
}

func (s *Server) endRequest() {
	s.mu.Lock()
	s.inflight--
	if s.inflight == 0 && s.draining {
		s.closeDrainedLocked()
	}
	s.mu.Unlock()
}

// requestBudget resolves the effective deadline for one gated request:
// the configured RequestTimeout, tightened by a propagated
// X-SCBill-Deadline-Ms when one is present. expired reports a budget
// already spent on arrival (<= 0 ms), which short-circuits to 504.
func (s *Server) requestBudget(r *http.Request) (budget time.Duration, propagated, expired bool) {
	budget = s.cfg.RequestTimeout
	ms, ok := wire.Deadline(r.Header)
	if !ok {
		return budget, false, false // absent or unparseable: keep the default
	}
	if ms <= 0 {
		return 0, true, true
	}
	return wire.Tighten(budget, ms), true, false
}

// gated wraps an expensive handler with the service's admission
// control: drain refusal, the per-request deadline (tightened by a
// propagated X-SCBill-Deadline-Ms), and the bounded concurrency queue
// with load shedding. The path selects the endpoint class tracked for
// the Retry-After estimate.
func (s *Server) gated(path string, h func(http.ResponseWriter, *http.Request, []byte)) http.Handler {
	class := classFor(path)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.beginRequest() {
			writeError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		defer s.endRequest()

		budget, propagated, expired := s.requestBudget(r)
		if expired {
			s.metrics.deadlineExpired.Add(1)
			writeError(w, http.StatusGatewayTimeout,
				"propagated deadline already expired; refusing to start evaluation")
			return
		}
		if propagated {
			s.metrics.deadlinePropagated.Add(1)
		}
		ctx, cancel := context.WithTimeout(r.Context(), budget)
		defer cancel()
		r = r.WithContext(ctx)

		// Buffer the body before parking in the admission queue:
		// net/http only watches the connection for a client disconnect
		// once the request body has been consumed, so without this a
		// hung-up client would hold its queue token — invisible — until
		// the deadline. With the body drained, a disconnect cancels the
		// request context and unparks the waiter immediately. The
		// handler decodes these bytes; nothing reads r.Body again. The
		// buffer goes back to wire's pool once the handler has returned:
		// nothing a handler decodes or answers aliases it.
		body, err := wire.ReadBody(w, r)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
			return
		}
		defer body.Release()

		cm := s.metrics.class(class)
		cm.pending.Add(1)
		wait := time.Now()
		err = s.limiter.acquire(ctx)
		s.stages.Observe(stageAdmissionWait, time.Since(wait).Seconds())
		if err != nil {
			cm.pending.Add(-1)
			switch {
			case err == errSaturated:
				s.metrics.shed.Add(1)
				w.Header().Set("Retry-After", s.retryAfterHint())
				writeError(w, http.StatusTooManyRequests, "request queue is full, retry later")
			case errors.Is(err, context.Canceled):
				// The client hung up while the request was queued: there
				// is no one left to answer, so a 504 would only be
				// written to a dead connection and miscounted as a
				// server-side timeout. Count and log it as what it is.
				s.metrics.clientCancels.Add(1)
				if lg := s.cfg.Logger; lg != nil {
					lg.Info("client canceled while queued",
						"path", path, "request_id", obs.RequestIDFrom(r.Context()))
				}
			default:
				// Deadline expired while queued. Report the budget this
				// request actually had — propagated or configured — so the
				// 504 is truthful about the time that was available.
				writeError(w, http.StatusGatewayTimeout,
					fmt.Sprintf("timed out waiting for an evaluation slot (budget %s)", budget))
			}
			return
		}
		defer cm.pending.Add(-1)
		defer s.limiter.release()
		serviceStart := time.Now()
		h(w, r, body.Bytes)
		s.metrics.observeGated(class, time.Since(serviceStart))
	})
}

// retryAfterHint suggests when a shed client should come back, from the
// observed backlog rather than a static timeout: the requests ahead of
// a retrying client (everyone holding or waiting for a slot) drain at
// MaxConcurrent × the expected service time per backlogged request.
// That expectation is derived from the class mix of what is actually
// pending — a queue full of single bills drains orders of magnitude
// faster than one stuffed with 64-item batches or 5000-candidate
// optimize searches, and the overall mean would let one historic batch
// over-penalize every shed single-bill client. Classes with no service
// history yet fall back to the overall gated mean. Floored at one
// second — also the cold answer before any request has completed — and
// capped at a minute.
func (s *Server) retryAfterHint() string {
	backlog := s.limiter.active() + s.limiter.waiting()
	overall := s.metrics.gatedMean()

	// Expected per-request service time, weighted by the pending class
	// mix. The shedding caller has already left the pending counts.
	var weighted, pending float64
	for _, cm := range s.metrics.classes {
		n := float64(cm.pending.Load())
		if n <= 0 {
			continue
		}
		mean := cm.service.Snapshot().Mean()
		if mean == 0 {
			mean = overall
		}
		weighted += n * mean
		pending += n
	}
	per := overall
	if pending > 0 {
		per = weighted / pending
	}

	secs := int(math.Ceil(per * float64(backlog) / float64(s.cfg.MaxConcurrent)))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return strconv.Itoa(secs)
}
