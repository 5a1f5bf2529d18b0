// Package pos holds metricname true positives for the router scope
// (in scope: its package path contains internal/route).
package pos

import (
	"fmt"
	"io"
)

type set struct{}

func (set) Counter(name, help string) {}

func declare(w io.Writer, m set) {
	m.Counter("scroute_BadName", "")                                // want `metric name "scroute_BadName" does not match`
	fmt.Fprintf(w, "scroute_upstream_seconds_bucket{le=\"1\"} 3\n") // want `hand-rolled histogram series "scroute_upstream_seconds_bucket"`
	// The router must not mint backend series: side-by-side scrapes
	// would collide.
	m.Counter("scserved_requests_total", "")               // want `metric name "scserved_requests_total" is outside this package's namespace`
	fmt.Fprintln(w, "# TYPE scroute_hedges_total counter") // want `exposition header written outside internal/obs`
}
