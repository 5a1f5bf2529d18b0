package main

import (
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {11, 2}, {0, 1},
	} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g", c.p, got, c.want)
		}
	}
	// p99 of 1000 values is the 990th: exactly ten values lie beyond it.
	thousand := make([]time.Duration, 1000)
	for i := range thousand {
		thousand[i] = time.Duration(i + 1)
	}
	if got := percentile(thousand, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990", got)
	}
	if got := percentile([]float64(nil), 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python: statistics.quantiles(vs, n=4).
	for _, c := range []struct {
		vs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, med, q3 := quartiles(c.vs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", c.vs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	run := func(p50, fail float64) runResult {
		return runResult{Workload: "optimize", Metrics: map[string]float64{"latency_p50_ms": p50, "fail_ratio": fail}}
	}
	base := &resultFile{Runs: []runResult{run(10, 0), run(10.2, 0), run(9.9, 0)}}
	same := &resultFile{Runs: []runResult{run(10.4, 0), run(10.1, 0), run(10.3, 0)}}
	slower := &resultFile{Runs: []runResult{run(13, 0), run(13.5, 0), run(12.8, 0.01)}}
	var out strings.Builder
	if n := compare(&out, base, same); n != 0 {
		t.Errorf("same code: %d unresolved, want 0\n%s", n, out.String())
	}
	out.Reset()
	if n := compare(&out, base, slower); n != 1 {
		t.Errorf("30%% slower: %d unresolved, want 1 (latency only; the fail_ratio median stays 0)\n%s", n, out.String())
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "optimize", "--trace", "1", "-trace", "-seed", "2", "-trace", "0"})
	want := []string{"--workload", "optimize", "--trace=1", "-trace", "-seed", "2", "-trace=0"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("normalizeArgs = %q, want %q", got, want)
	}
}
