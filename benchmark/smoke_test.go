package main

import (
	"io"
	"runtime"
	"testing"
)

// testLog sends the benchmark's diagnostics to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(string(p))
	return len(p), nil
}

// TestSmoke runs every workload for a second, untraced and traced, and
// requires every response to match the oracle and every result-line
// metric to be measured.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(w, runConfig{seed: 1, seconds: 1, trace: trace, conns: runtime.NumCPU(),
				out: io.Discard, log: testLog{t}})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			if res.Attempted == 0 || res.Failed != 0 || res.Metrics["fail_ratio"] != 0 {
				t.Errorf("%s (trace %v): %d attempted, %d failed", w.name, trace, res.Attempted, res.Failed)
			}
			if _, err := resultLine(res); err != nil {
				t.Errorf("%s (trace %v): %v", w.name, trace, err)
			}
		}
	}
}
