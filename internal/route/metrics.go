package route

// The router's /metrics page, declared on an obs.Metrics set under the
// scroute_ namespace: per-path/code request counts, per-backend forward
// outcomes, breaker ejections, retries and hedges, and an upstream
// latency histogram.

import (
	"sort"

	"repro/internal/obs"
)

type metrics struct {
	*obs.Metrics
	requests        *obs.CounterVec // path, code: as relayed to the client
	backendRequests *obs.CounterVec // backend, code; code "error" = transport failure
	ejections       *obs.CounterVec // backend: breaker trips into open

	retries         *obs.Counter // forwards re-sent to a lower-ranked backend
	noBackend       *obs.Counter // requests that exhausted every backend
	hedges          *obs.Counter // speculative second attempts launched
	hedgeWins       *obs.Counter // hedges whose response was relayed
	budgetExhausted *obs.Counter // retries/hedges refused by the token budget
	tryTimeouts     *obs.Counter // forwards killed by the per-try timeout
	deadlineExpired *obs.Counter // requests arriving with a spent deadline budget

	upstream *obs.Histogram // seconds per successful forward
}

// newMetrics declares the page. Backend health and the budget balance
// are read from the router at scrape time.
func newMetrics(rt *Router) *metrics {
	r := obs.NewMetrics()
	m := &metrics{Metrics: r}
	m.requests = r.CounterVec("scroute_requests_total", "Requests relayed to clients by path and status code.", "path", "code")
	m.backendRequests = r.CounterVec("scroute_backend_requests_total", `Forward attempts by backend and outcome (code, or "error" for transport failures).`, "backend", "code")
	m.ejections = r.CounterVec("scroute_backend_ejections_total", "Breaker trips that ejected a backend from the ring.", "backend")

	byName := append([]*backend(nil), rt.backends...)
	sort.Slice(byName, func(i, j int) bool { return byName[i].name < byName[j].name })
	r.Func(obs.GaugeKind, "scroute_backend_healthy", "Whether the backend is currently eligible for forwards (last poll passed, breaker not open).", []string{"backend"}, func(emit obs.Emit) {
		for _, b := range byName {
			healthy := 0.0
			if b.eligible() {
				healthy = 1
			}
			emit(healthy, b.name)
		}
	})

	m.retries = r.Counter("scroute_retries_total", "Forwards re-sent to a lower-ranked backend after a failure.")
	m.noBackend = r.Counter("scroute_no_backend_total", "Requests that exhausted every backend without a relayable response.")
	m.hedges = r.Counter("scroute_hedges_total", "Speculative second attempts launched after the hedge delay.")
	m.hedgeWins = r.Counter("scroute_hedge_wins_total", "Hedged attempts whose response was the one relayed to the client.")
	m.budgetExhausted = r.Counter("scroute_retry_budget_exhausted_total", "Failover retries and hedges refused because the token budget was spent.")
	m.tryTimeouts = r.Counter("scroute_try_timeouts_total", "Forwards killed by the per-try timeout (gray-failure detector).")
	m.deadlineExpired = r.Counter("scroute_deadline_expired_total", "Requests whose propagated X-SCBill-Deadline-Ms was already spent on arrival.")
	r.FloatGaugeFunc("scroute_retry_budget_tokens", "Current balance of the shared retry/hedge token bucket.", func() float64 { return rt.budget.Stats().Tokens })
	m.upstream = r.Histogram("scroute_upstream_seconds", "Latency of successful forwards, send to response headers.")
	return m
}

// pathLabel bounds the path label to the routes scserved serves:
// anything else a client sends counts under "other", so stray paths
// cannot mint series without limit.
func pathLabel(path string) string {
	switch path {
	case "/v1/bill", "/v1/bill/batch", "/v1/advise", "/v1/optimize",
		"/v1/survey/roster", "/v1/survey/records", "/v1/survey/typology":
		return path
	}
	return "other"
}

func (m *metrics) observeRequest(path string, code int) {
	m.requests.With(pathLabel(path), obs.CodeLabel(code)).Add(1)
}

// observeBackend records one forward outcome; code <= 0 means the
// request never produced a response (transport error).
func (m *metrics) observeBackend(backend string, code int) {
	label := "error"
	if code > 0 {
		label = obs.CodeLabel(code)
	}
	m.backendRequests.With(backend, label).Add(1)
}
