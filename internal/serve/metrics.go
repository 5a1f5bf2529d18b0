package serve

// Hand-rolled metrics in Prometheus text exposition format — request
// counts by path and status, request-latency and per-stage latency
// histograms (proper _bucket/_sum/_count series with the +Inf bucket),
// engine-cache counters and gauges, the in-flight/queued gauges and
// shed count. No client library: the histograms come from internal/obs
// and the format is lines of `name{labels} value`.

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
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

type metrics struct {
	mu       sync.Mutex
	requests map[string]uint64 // "path|code" -> count

	// latency is the all-requests histogram behind
	// scserved_request_seconds; gated tracks only the service time of
	// admitted gated requests (slot acquisition to handler return) and,
	// together with the per-class split in classes, feeds the
	// Retry-After estimate.
	latency *obs.Histogram
	gated   *obs.Histogram
	classes map[string]*classMetrics

	shed atomic.Uint64
	// clientCancels counts requests whose client disconnected while
	// they were queued for an evaluation slot — not a server timeout,
	// and not worth writing a 504 to a dead connection.
	clientCancels atomic.Uint64
	// panics counts handler panics recovered by instrument.
	panics atomic.Uint64
	// degraded counts bill/advise responses computed on the fixed
	// fallback tariff because the price feed was unavailable past its
	// staleness budget; feedStale counts responses served on cached
	// prices while the feed was failing within the budget.
	degraded  atomic.Uint64
	feedStale atomic.Uint64
	// batchRequests counts /v1/bill/batch requests admitted past body
	// validation; batchItems counts the items they carried — one gated
	// admission slot serves batchItems/batchRequests bills on average.
	batchRequests atomic.Uint64
	batchItems    atomic.Uint64
	// deadlinePropagated counts gated requests that arrived with a
	// parseable X-SCBill-Deadline-Ms budget from the router;
	// deadlineExpired counts those whose budget was already spent on
	// arrival and were refused with 504 before evaluation started.
	deadlinePropagated atomic.Uint64
	deadlineExpired    atomic.Uint64
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[string]uint64),
		latency:  obs.NewHistogram(),
		gated:    obs.NewHistogram(),
		classes: map[string]*classMetrics{
			classSingle:   {service: obs.NewHistogram()},
			classBatch:    {service: obs.NewHistogram()},
			classOptimize: {service: obs.NewHistogram()},
		},
	}
}

// class returns the metrics bucket for an admission class.
func (m *metrics) class(name string) *classMetrics { return m.classes[name] }

func (m *metrics) observe(path string, code int, elapsed time.Duration) {
	m.mu.Lock()
	m.requests[fmt.Sprintf("%s|%d", path, code)]++
	m.mu.Unlock()
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

// render writes the exposition. Gauges are sampled at scrape time.
func (m *metrics) render(w *strings.Builder, s *Server) {
	m.mu.Lock()
	requests := make(map[string]uint64, len(m.requests))
	for k, v := range m.requests {
		requests[k] = v
	}
	m.mu.Unlock()

	fmt.Fprintf(w, "# HELP scserved_requests_total Requests served, by path and status code.\n")
	fmt.Fprintf(w, "# TYPE scserved_requests_total counter\n")
	keys := make([]string, 0, len(requests))
	for k := range requests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		path, code, _ := strings.Cut(k, "|")
		fmt.Fprintf(w, "scserved_requests_total{path=%q,code=%q} %d\n", path, code, requests[k])
	}

	fmt.Fprintf(w, "# HELP scserved_request_seconds Request latency histogram.\n")
	fmt.Fprintf(w, "# TYPE scserved_request_seconds histogram\n")
	m.latency.Snapshot().WriteProm(w, "scserved_request_seconds", "")

	// Per-stage latency: one histogram per span name, covering both the
	// HTTP stages (admission_wait, cache, compile, evaluate, encode) and
	// the billing engine's spans (billing.period, billing.tariff, ...).
	stages := s.stages.Snapshot()
	if len(stages) > 0 {
		fmt.Fprintf(w, "# HELP scserved_stage_seconds Per-stage latency, by pipeline stage or billing span.\n")
		fmt.Fprintf(w, "# TYPE scserved_stage_seconds histogram\n")
		for _, st := range stages {
			st.WriteProm(w, "scserved_stage_seconds", fmt.Sprintf("stage=%q", st.Name))
		}
	}

	cs := s.cache.stats()
	fmt.Fprintf(w, "# HELP scserved_engine_cache_hits_total Engine cache hits.\n")
	fmt.Fprintf(w, "# TYPE scserved_engine_cache_hits_total counter\n")
	fmt.Fprintf(w, "scserved_engine_cache_hits_total %d\n", cs.hits)
	fmt.Fprintf(w, "# HELP scserved_engine_cache_misses_total Engine cache misses.\n")
	fmt.Fprintf(w, "# TYPE scserved_engine_cache_misses_total counter\n")
	fmt.Fprintf(w, "scserved_engine_cache_misses_total %d\n", cs.misses)
	fmt.Fprintf(w, "# HELP scserved_engine_compiles_total Contract engines compiled.\n")
	fmt.Fprintf(w, "# TYPE scserved_engine_compiles_total counter\n")
	fmt.Fprintf(w, "scserved_engine_compiles_total %d\n", cs.compiles)
	fmt.Fprintf(w, "# HELP scserved_engine_cache_evictions_total Engines evicted from the LRU.\n")
	fmt.Fprintf(w, "# TYPE scserved_engine_cache_evictions_total counter\n")
	fmt.Fprintf(w, "scserved_engine_cache_evictions_total %d\n", cs.evictions)
	fmt.Fprintf(w, "# HELP scserved_engine_cache_size Engines currently cached.\n")
	fmt.Fprintf(w, "# TYPE scserved_engine_cache_size gauge\n")
	fmt.Fprintf(w, "scserved_engine_cache_size %d\n", cs.size)
	fmt.Fprintf(w, "# HELP scserved_engine_cache_capacity Engine LRU capacity.\n")
	fmt.Fprintf(w, "# TYPE scserved_engine_cache_capacity gauge\n")
	fmt.Fprintf(w, "scserved_engine_cache_capacity %d\n", cs.capacity)
	fmt.Fprintf(w, "# HELP scserved_engine_compiles_inflight Engine compiles currently running.\n")
	fmt.Fprintf(w, "# TYPE scserved_engine_compiles_inflight gauge\n")
	fmt.Fprintf(w, "scserved_engine_compiles_inflight %d\n", cs.building)

	fmt.Fprintf(w, "# HELP scserved_in_flight Gated requests holding an evaluation slot.\n")
	fmt.Fprintf(w, "# TYPE scserved_in_flight gauge\n")
	fmt.Fprintf(w, "scserved_in_flight %d\n", s.limiter.active())
	fmt.Fprintf(w, "# HELP scserved_queued Gated requests waiting for a slot.\n")
	fmt.Fprintf(w, "# TYPE scserved_queued gauge\n")
	fmt.Fprintf(w, "scserved_queued %d\n", s.limiter.waiting())
	fmt.Fprintf(w, "# HELP scserved_slots Evaluation slot capacity (MaxConcurrent).\n")
	fmt.Fprintf(w, "# TYPE scserved_slots gauge\n")
	fmt.Fprintf(w, "scserved_slots %d\n", s.cfg.MaxConcurrent)
	fmt.Fprintf(w, "# HELP scserved_queue_capacity Admission queue capacity (QueueDepth).\n")
	fmt.Fprintf(w, "# TYPE scserved_queue_capacity gauge\n")
	fmt.Fprintf(w, "scserved_queue_capacity %d\n", s.cfg.QueueDepth)
	fmt.Fprintf(w, "# HELP scserved_shed_total Requests shed with 429 because the queue was full.\n")
	fmt.Fprintf(w, "# TYPE scserved_shed_total counter\n")
	fmt.Fprintf(w, "scserved_shed_total %d\n", m.shed.Load())
	fmt.Fprintf(w, "# HELP scserved_client_cancels_total Requests whose client disconnected while queued for a slot.\n")
	fmt.Fprintf(w, "# TYPE scserved_client_cancels_total counter\n")
	fmt.Fprintf(w, "scserved_client_cancels_total %d\n", m.clientCancels.Load())

	classNames := make([]string, 0, len(m.classes))
	for name := range m.classes {
		classNames = append(classNames, name)
	}
	sort.Strings(classNames)
	fmt.Fprintf(w, "# HELP scserved_gated_pending Gated requests holding or waiting for a slot, by endpoint class.\n")
	fmt.Fprintf(w, "# TYPE scserved_gated_pending gauge\n")
	for _, name := range classNames {
		fmt.Fprintf(w, "scserved_gated_pending{class=%q} %d\n", name, m.classes[name].pending.Load())
	}
	fmt.Fprintf(w, "# HELP scserved_gated_service_seconds Admitted gated service time, by endpoint class.\n")
	fmt.Fprintf(w, "# TYPE scserved_gated_service_seconds histogram\n")
	for _, name := range classNames {
		m.classes[name].service.Snapshot().WriteProm(w, "scserved_gated_service_seconds", fmt.Sprintf("class=%q", name))
	}
	fmt.Fprintf(w, "# HELP scserved_panics_total Handler panics recovered by the middleware.\n")
	fmt.Fprintf(w, "# TYPE scserved_panics_total counter\n")
	fmt.Fprintf(w, "scserved_panics_total %d\n", m.panics.Load())
	fmt.Fprintf(w, "# HELP scserved_degraded_total Responses billed on the fixed fallback tariff because the price feed was down past its staleness budget.\n")
	fmt.Fprintf(w, "# TYPE scserved_degraded_total counter\n")
	fmt.Fprintf(w, "scserved_degraded_total %d\n", m.degraded.Load())
	fmt.Fprintf(w, "# HELP scserved_feed_stale_total Responses billed on cached prices while the feed was failing within the staleness budget.\n")
	fmt.Fprintf(w, "# TYPE scserved_feed_stale_total counter\n")
	fmt.Fprintf(w, "scserved_feed_stale_total %d\n", m.feedStale.Load())
	fmt.Fprintf(w, "# HELP scserved_batch_requests_total Batch bill requests accepted.\n")
	fmt.Fprintf(w, "# TYPE scserved_batch_requests_total counter\n")
	fmt.Fprintf(w, "scserved_batch_requests_total %d\n", m.batchRequests.Load())
	fmt.Fprintf(w, "# HELP scserved_batch_items_total Items carried by batch bill requests.\n")
	fmt.Fprintf(w, "# TYPE scserved_batch_items_total counter\n")
	fmt.Fprintf(w, "scserved_batch_items_total %d\n", m.batchItems.Load())
	fmt.Fprintf(w, "# HELP scserved_deadline_propagated_total Gated requests carrying a propagated X-SCBill-Deadline-Ms budget.\n")
	fmt.Fprintf(w, "# TYPE scserved_deadline_propagated_total counter\n")
	fmt.Fprintf(w, "scserved_deadline_propagated_total %d\n", m.deadlinePropagated.Load())
	fmt.Fprintf(w, "# HELP scserved_deadline_expired_total Gated requests refused because their propagated deadline was already spent on arrival.\n")
	fmt.Fprintf(w, "# TYPE scserved_deadline_expired_total counter\n")
	fmt.Fprintf(w, "scserved_deadline_expired_total %d\n", m.deadlineExpired.Load())

	if pf := s.cfg.PriceFeed; pf != nil {
		fs := pf.Stats()
		fmt.Fprintf(w, "# HELP scserved_feed_answers_total Price-feed cache answers, by state.\n")
		fmt.Fprintf(w, "# TYPE scserved_feed_answers_total counter\n")
		fmt.Fprintf(w, "scserved_feed_answers_total{state=\"fresh\"} %d\n", fs.Fresh)
		fmt.Fprintf(w, "scserved_feed_answers_total{state=\"stale\"} %d\n", fs.Stale)
		fmt.Fprintf(w, "scserved_feed_answers_total{state=\"degraded\"} %d\n", fs.Degraded)
		fmt.Fprintf(w, "# HELP scserved_feed_refreshes_total Successful upstream price fetches.\n")
		fmt.Fprintf(w, "# TYPE scserved_feed_refreshes_total counter\n")
		fmt.Fprintf(w, "scserved_feed_refreshes_total %d\n", fs.Refreshes)
		fmt.Fprintf(w, "# HELP scserved_feed_refresh_failures_total Failed upstream price-fetch attempts.\n")
		fmt.Fprintf(w, "# TYPE scserved_feed_refresh_failures_total counter\n")
		fmt.Fprintf(w, "scserved_feed_refresh_failures_total %d\n", fs.RefreshFailures)
		if age, ok := pf.Age(); ok {
			fmt.Fprintf(w, "# HELP scserved_feed_age_seconds Age of the cached price series.\n")
			fmt.Fprintf(w, "# TYPE scserved_feed_age_seconds gauge\n")
			fmt.Fprintf(w, "scserved_feed_age_seconds %g\n", age.Seconds())
		}
		bs := pf.Breaker().Stats()
		fmt.Fprintf(w, "# HELP scserved_feed_breaker_state Feed circuit-breaker state (0 closed, 1 half-open, 2 open).\n")
		fmt.Fprintf(w, "# TYPE scserved_feed_breaker_state gauge\n")
		fmt.Fprintf(w, "scserved_feed_breaker_state %d\n", pf.Breaker().State())
		fmt.Fprintf(w, "# HELP scserved_feed_breaker_opens_total Times the feed breaker tripped open.\n")
		fmt.Fprintf(w, "# TYPE scserved_feed_breaker_opens_total counter\n")
		fmt.Fprintf(w, "scserved_feed_breaker_opens_total %d\n", bs.Opens)
		fmt.Fprintf(w, "# HELP scserved_feed_breaker_rejections_total Fetches rejected fast by the open feed breaker.\n")
		fmt.Fprintf(w, "# TYPE scserved_feed_breaker_rejections_total counter\n")
		fmt.Fprintf(w, "scserved_feed_breaker_rejections_total %d\n", bs.Rejections)
	}

	fmt.Fprintf(w, "# HELP scserved_uptime_seconds Seconds since the server started.\n")
	fmt.Fprintf(w, "# TYPE scserved_uptime_seconds gauge\n")
	fmt.Fprintf(w, "scserved_uptime_seconds %g\n", time.Since(s.started).Seconds())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	s.metrics.render(&b, s)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
