// Package pos holds metricname true positives (in scope: its package
// path contains internal/serve).
package pos

import (
	"fmt"
	"io"
)

type set struct{}

func (set) Counter(name, help string) {}

func declare(w io.Writer, m set) {
	m.Counter("scserved_BadName", "")                               // want `metric name "scserved_BadName" does not match`
	m.Counter("scserved_http_5xx_total", "")                        // want `metric name "scserved_http_5xx_total" does not match`
	fmt.Fprintf(w, "scserved_request_seconds_bucket{le=\"1\"} 3\n") // want `hand-rolled histogram series "scserved_request_seconds_bucket"`
	// The backend must not mint router series.
	m.Counter("scroute_requests_total", "") // want `metric name "scroute_requests_total" is outside this package's namespace`
	// Hand-written exposition skips the registration checks.
	fmt.Fprintf(w, "# TYPE scserved_requests_total counter\n") // want `exposition header written outside internal/obs`
	fmt.Fprintf(w, "# HELP %s %s\n", "scserved_in_flight", "") // want `exposition header written outside internal/obs`
}
