// Package neg holds metricname near-misses that must stay silent: the
// names the production /metrics page declares.
package neg

type set struct{}

func (set) Counter(name, help string)                   {}
func (set) Histogram(name, help string)                 {}
func (set) GaugeFunc(name, help string, f func() int64) {}

func declare(m set) {
	m.Counter("scserved_requests_total", "Requests served, by path and status code.")
	m.GaugeFunc("scserved_in_flight", "Gated requests holding an evaluation slot.", nil)
	m.Histogram("scserved_request_seconds", "Request latency histogram.")
	m.Histogram("scserved_payload_bytes", "")
	// Non-scserved names are someone else's namespace, and a # inside
	// help text is not a header.
	m.GaugeFunc("go_goroutines", "Goroutines (# of them).", nil)
}
