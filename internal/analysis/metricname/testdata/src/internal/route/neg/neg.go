// Package neg holds compliant router names that must stay silent: the
// scroute_ namespace, declared on a metric set.
package neg

type set struct{}

func (set) Counter(name, help string)                          {}
func (set) CounterVec(name, help string, labels ...string)     {}
func (set) Histogram(name, help string)                        {}
func (set) FloatGaugeFunc(name, help string, f func() float64) {}

func declare(m set) {
	m.CounterVec("scroute_requests_total", "Requests relayed to clients by path and status code.", "path", "code")
	m.Histogram("scroute_upstream_seconds", "")
	// The brownout families.
	m.Counter("scroute_hedges_total", "")
	m.Counter("scroute_retry_budget_exhausted_total", "")
	m.FloatGaugeFunc("scroute_retry_budget_tokens", "", nil)
}
