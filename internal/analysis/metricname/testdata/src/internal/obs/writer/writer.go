// Package writer sits under internal/obs, the one package allowed to
// write exposition headers and the _bucket/_sum/_count series — it IS
// the renderer. Name-pattern rules still apply here.
package writer

import (
	"fmt"
	"io"
)

func expose(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", "scserved_request_seconds", "Latency.", "scserved_request_seconds", "histogram")
	fmt.Fprintf(w, "scserved_request_seconds_bucket{le=\"+Inf\"} 9\n")
	fmt.Fprintf(w, "scserved_request_seconds_sum 1.25\n")
	fmt.Fprintf(w, "scserved_request_seconds_count 9\n")
	fmt.Fprintf(w, "scserved_Bad_sum 0\n") // want `metric name "scserved_Bad_sum" does not match`
}
