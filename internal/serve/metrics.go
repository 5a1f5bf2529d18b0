package serve

// The daemon's /metrics page, declared on an obs.Metrics set: request
// counts by path and status, request-latency and per-stage latency
// histograms, engine-cache counters and gauges, the in-flight/queued
// gauges and shed count, admission classes, and the price feed.

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Stage span names recorded into the server's registry. The billing
// engine adds its own spans (billing.period, billing.tariff, ...) to
// the same registry through the request context, as does the optimizer
// (optimize_search, optimize_evaluate — see internal/optimize).
const (
	stageAdmissionWait = "admission_wait"
	stageCache         = "cache"
	stageCompile       = "compile"
	stageEvaluate      = "evaluate"
	stageEncode        = "encode"
	// Batch-aware stages: one batch_evaluate span covers the whole
	// fan-out across the batch pool, one batch_encode span per distinct
	// (spec, load) pair.
	stageBatchEvaluate = "batch_evaluate"
	stageBatchEncode   = "batch_encode"
)

// Endpoint classes for the gated admission metrics: a one-slot batch
// request carries up to 64 bills and an optimize request up to 5000
// candidate evaluations, so their service times live on a different
// scale than a single bill or advise sweep. Tracking them apart keeps
// the Retry-After estimate honest for shed single-bill clients.
const (
	classSingle   = "single"
	classBatch    = "batch"
	classOptimize = "optimize"
)

// classFor maps a gated endpoint's path onto its admission class.
func classFor(path string) string {
	switch path {
	case "/v1/bill/batch":
		return classBatch
	case "/v1/optimize":
		return classOptimize
	default:
		return classSingle
	}
}

// classMetrics tracks one endpoint class's admission picture: how many
// requests of the class currently sit in the gate (holding or waiting
// for a slot) and the class's observed service-time distribution.
type classMetrics struct {
	pending atomic.Int64
	service *obs.Histogram
}

// metrics is the daemon's /metrics page and the instruments the
// request path drives. Families register in page order.
type metrics struct {
	*obs.Metrics
	requests *obs.CounterVec
	latency  *obs.Histogram
	// gated tracks only the service time of admitted gated requests
	// (slot acquisition to handler return) and, together with the
	// per-class split in classes, feeds the Retry-After estimate. It has
	// no family on the page.
	gated   *obs.Histogram
	classes map[string]*classMetrics

	shed *obs.Counter
	// clientCancels counts requests whose client disconnected while
	// they were queued for an evaluation slot — not a server timeout,
	// and not worth writing a 504 to a dead connection.
	clientCancels *obs.Counter
	// panics counts handler panics recovered by instrument.
	panics *obs.Counter
	// degraded counts bill/advise responses computed on the fixed
	// fallback tariff because the price feed was unavailable past its
	// staleness budget; feedStale counts responses served on cached
	// prices while the feed was failing within the budget.
	degraded  *obs.Counter
	feedStale *obs.Counter
	// batchRequests counts /v1/bill/batch requests admitted past body
	// validation; batchItems counts the items they carried — one gated
	// admission slot serves batchItems/batchRequests bills on average.
	batchRequests *obs.Counter
	batchItems    *obs.Counter
	// deadlinePropagated counts gated requests that arrived with a
	// parseable X-SCBill-Deadline-Ms budget from the router;
	// deadlineExpired counts those whose budget was already spent on
	// arrival and were refused with 504 before evaluation started.
	deadlinePropagated *obs.Counter
	deadlineExpired    *obs.Counter
}

// newMetrics declares the page. Gauges and the cache and feed counters
// are read from the server at scrape time.
func newMetrics(s *Server) *metrics {
	r := obs.NewMetrics()
	m := &metrics{Metrics: r, gated: obs.NewHistogram(), classes: make(map[string]*classMetrics)}
	m.requests = r.CounterVec("scserved_requests_total", "Requests served, by path and status code.", "path", "code")
	m.latency = r.Histogram("scserved_request_seconds", "Request latency histogram.")
	// Per-stage latency: one histogram per span name, covering both the
	// HTTP stages (admission_wait, cache, compile, evaluate, encode) and
	// the billing engine's spans (billing.period, billing.tariff, ...).
	r.Histograms("scserved_stage_seconds", "Per-stage latency, by pipeline stage or billing span.", "stage", s.stages)

	r.CounterFunc("scserved_engine_cache_hits_total", "Engine cache hits.", func() uint64 { return s.cache.stats().hits })
	r.CounterFunc("scserved_engine_cache_misses_total", "Engine cache misses.", func() uint64 { return s.cache.stats().misses })
	r.CounterFunc("scserved_engine_compiles_total", "Contract engines compiled.", func() uint64 { return s.cache.stats().compiles })
	r.CounterFunc("scserved_engine_cache_evictions_total", "Engines evicted from the LRU.", func() uint64 { return s.cache.stats().evictions })
	r.GaugeFunc("scserved_engine_cache_size", "Engines currently cached.", func() int64 { return int64(s.cache.stats().size) })
	r.GaugeFunc("scserved_engine_cache_capacity", "Engine LRU capacity.", func() int64 { return int64(s.cache.stats().capacity) })
	r.GaugeFunc("scserved_engine_compiles_inflight", "Engine compiles currently running.", func() int64 { return int64(s.cache.stats().building) })

	r.GaugeFunc("scserved_in_flight", "Gated requests holding an evaluation slot.", func() int64 { return int64(s.limiter.active()) })
	r.GaugeFunc("scserved_queued", "Gated requests waiting for a slot.", func() int64 { return int64(s.limiter.waiting()) })
	r.GaugeFunc("scserved_slots", "Evaluation slot capacity (MaxConcurrent).", func() int64 { return int64(s.cfg.MaxConcurrent) })
	r.GaugeFunc("scserved_queue_capacity", "Admission queue capacity (QueueDepth).", func() int64 { return int64(s.cfg.QueueDepth) })
	m.shed = r.Counter("scserved_shed_total", "Requests shed with 429 because the queue was full.")
	m.clientCancels = r.Counter("scserved_client_cancels_total", "Requests whose client disconnected while queued for a slot.")

	// Classes in label order: the pending series render as listed.
	classes := []string{classBatch, classOptimize, classSingle}
	service := obs.NewRegistry()
	for _, class := range classes {
		m.classes[class] = &classMetrics{service: service.Histogram(class)}
	}
	r.Func(obs.GaugeKind, "scserved_gated_pending", "Gated requests holding or waiting for a slot, by endpoint class.", []string{"class"}, func(emit obs.Emit) {
		for _, class := range classes {
			emit(float64(m.classes[class].pending.Load()), class)
		}
	})
	r.Histograms("scserved_gated_service_seconds", "Admitted gated service time, by endpoint class.", "class", service)

	m.panics = r.Counter("scserved_panics_total", "Handler panics recovered by the middleware.")
	m.degraded = r.Counter("scserved_degraded_total", "Responses billed on the fixed fallback tariff because the price feed was down past its staleness budget.")
	m.feedStale = r.Counter("scserved_feed_stale_total", "Responses billed on cached prices while the feed was failing within the staleness budget.")
	m.batchRequests = r.Counter("scserved_batch_requests_total", "Batch bill requests accepted.")
	m.batchItems = r.Counter("scserved_batch_items_total", "Items carried by batch bill requests.")
	m.deadlinePropagated = r.Counter("scserved_deadline_propagated_total", "Gated requests carrying a propagated X-SCBill-Deadline-Ms budget.")
	m.deadlineExpired = r.Counter("scserved_deadline_expired_total", "Gated requests refused because their propagated deadline was already spent on arrival.")

	if pf := s.cfg.PriceFeed; pf != nil {
		r.Func(obs.CounterKind, "scserved_feed_answers_total", "Price-feed cache answers, by state.", []string{"state"}, func(emit obs.Emit) {
			fs := pf.Stats()
			emit(float64(fs.Fresh), "fresh")
			emit(float64(fs.Stale), "stale")
			emit(float64(fs.Degraded), "degraded")
		})
		r.CounterFunc("scserved_feed_refreshes_total", "Successful upstream price fetches.", func() uint64 { return pf.Stats().Refreshes })
		r.CounterFunc("scserved_feed_refresh_failures_total", "Failed upstream price-fetch attempts.", func() uint64 { return pf.Stats().RefreshFailures })
		r.Func(obs.FloatGaugeKind, "scserved_feed_age_seconds", "Age of the cached price series.", nil, func(emit obs.Emit) {
			if age, ok := pf.Age(); ok {
				emit(age.Seconds())
			}
		})
		r.GaugeFunc("scserved_feed_breaker_state", "Feed circuit-breaker state (0 closed, 1 half-open, 2 open).", func() int64 { return int64(pf.Breaker().State()) })
		r.CounterFunc("scserved_feed_breaker_opens_total", "Times the feed breaker tripped open.", func() uint64 { return pf.Breaker().Stats().Opens })
		r.CounterFunc("scserved_feed_breaker_rejections_total", "Fetches rejected fast by the open feed breaker.", func() uint64 { return pf.Breaker().Stats().Rejections })
	}

	r.FloatGaugeFunc("scserved_uptime_seconds", "Seconds since the server started.", func() float64 { return time.Since(s.started).Seconds() })
	return m
}

// class returns the metrics bucket for an admission class.
func (m *metrics) class(name string) *classMetrics { return m.classes[name] }

func (m *metrics) observe(path string, code int, elapsed time.Duration) {
	m.requests.With(path, obs.CodeLabel(code)).Add(1)
	m.latency.Observe(elapsed.Seconds())
}

// observeGated records one admitted gated request's service time, both
// in the overall distribution and in its endpoint class's.
func (m *metrics) observeGated(class string, elapsed time.Duration) {
	m.gated.Observe(elapsed.Seconds())
	if cm := m.class(class); cm != nil {
		cm.service.Observe(elapsed.Seconds())
	}
}

// gatedMean returns the mean service time of admitted gated requests in
// seconds, 0 before any request completes.
func (m *metrics) gatedMean() float64 {
	return m.gated.Snapshot().Mean()
}

// statusRecorder captures the status code a handler produces. The
// status is latched by whichever comes first — an explicit WriteHeader
// or the implicit 200 of the first Write — mirroring net/http, which
// ignores any later WriteHeader. Without latching on Write, a handler
// that writes a body and then calls WriteHeader(500) (a no-op on the
// wire) would be miscounted as a 500.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if !r.wrote {
		// Implicit 200: the first Write sends the header.
		r.code = http.StatusOK
		r.wrote = true
	}
	return r.ResponseWriter.Write(b)
}

// instrument wraps a handler with the observability front end: a
// request ID (client-supplied X-Request-ID or freshly generated) and
// the server's span registry go into the context, the status code and
// latency are recorded, and the request is logged — at warning level
// with a "slow" marker above the configured threshold.
func (s *Server) instrument(path string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" || len(id) > 64 {
			id = obs.NewRequestID()
		}
		ctx := obs.WithRequestID(r.Context(), id)
		ctx = obs.WithSpans(ctx, s.stages)
		r = r.WithContext(ctx)
		w.Header().Set("X-Request-ID", id)

		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		defer func() {
			elapsed := time.Since(start)
			if v := recover(); v != nil {
				// A panicking handler must not take the daemon down: count
				// it, log it with the request ID, and answer 500 if the
				// handler had not started the response (if it had, the
				// connection is poisoned and closing it is all we can do).
				s.metrics.panics.Add(1)
				if lg := s.cfg.Logger; lg != nil {
					lg.Error("handler panic",
						"path", path, "request_id", id, "panic", fmt.Sprint(v))
				}
				if !rec.wrote {
					writeError(rec, http.StatusInternalServerError, "internal server error")
				}
			}
			s.metrics.observe(path, rec.code, elapsed)
			s.logRequest(path, id, rec.code, elapsed)
		}()
		h.ServeHTTP(rec, r)
	})
}

func (s *Server) logRequest(path, id string, code int, elapsed time.Duration) {
	lg := s.cfg.Logger
	if lg == nil {
		return
	}
	if s.cfg.SlowRequest > 0 && elapsed >= s.cfg.SlowRequest {
		lg.Warn("slow request",
			"path", path, "code", code, "request_id", id,
			"elapsed_ms", float64(elapsed)/float64(time.Millisecond),
			"threshold_ms", float64(s.cfg.SlowRequest)/float64(time.Millisecond))
		return
	}
	lg.Info("request",
		"path", path, "code", code, "request_id", id,
		"elapsed_ms", float64(elapsed)/float64(time.Millisecond))
}
