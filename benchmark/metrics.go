package main

// The metrics the benchmark reports, with units, directions and
// regression bounds. BENCHMARK.json at the repository root lists
// endToEnd and perLayer under the same names; a test keeps them in step.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which the metric may
	// worsen before a change counts as a regression; 0 means no bound.
	Bound float64
	// Absolute metrics may not worsen at all.
	Absolute bool
}

// endToEnd is what a user of the fleet sees, reported by every untraced
// run and printed on its result line. The time-based metrics carry the
// widest bound the benchmark allows: on a shared two-CPU machine a
// workload's speed drifts by a fifth between runs (see README.md), and a
// narrower bound would flag that drift.
var endToEnd = []metricDef{
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "goodput_rps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.05},
	{Name: "heap_retained_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// recordedMetrics are end-to-end metrics that result files record and
// -compare compares, but that stay off the result line: the tail
// latencies and the CPU time per request, whose spread between runs on
// a shared machine reaches the widest bound the benchmark may set; the
// ladder's highest passing rate and bills per second, which only some
// workloads have; and the failure ratio, which reads 0 when all is well.
var recordedMetrics = []metricDef{
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "max_rate_rps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "bills_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Absolute: true},
}

// perLayer is what a traced run prints on its result line: the layers
// every workload passes through, as the median time per request and as
// a share of the client's request time. The traced run's table has more.
var perLayer = []metricDef{
	{Name: "client.request_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "client.transport_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "route.self_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "route.key_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "serve.transport_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "serve.glue_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "serve.decode_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "serve.cache_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "load_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "contract.parse_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "contract.hash_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "contract.compile_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "evaluate_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "contract.encode_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "route.self_ms.share", Unit: "ratio", Better: "lower"},
	{Name: "serve.transport_ms.share", Unit: "ratio", Better: "lower"},
	{Name: "serve.glue_ms.share", Unit: "ratio", Better: "lower"},
	{Name: "serve.decode_ms.share", Unit: "ratio", Better: "lower"},
	{Name: "load_ms.share", Unit: "ratio", Better: "lower"},
	{Name: "evaluate_ms.share", Unit: "ratio", Better: "lower"},
	{Name: "contract.encode_ms.share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

func allDefs() []metricDef {
	return append(append(append([]metricDef(nil), endToEnd...), recordedMetrics...), perLayer...)
}

func defOf(name string) (metricDef, bool) {
	for _, d := range allDefs() {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// unitOf is a metric's unit: its definition's, or else what its name
// says.
func unitOf(name string) string {
	if d, ok := defOf(name); ok {
		return d.Unit
	}
	for _, s := range []struct{ suffix, unit string }{
		{".calls", "count"}, {".share", "ratio"}, {"_ratio", "ratio"}, {"_pct", "%"},
		{"_rps", "1/s"}, {"_s", "s"}, {"_samples", "count"}, {"hedges", "count"}, {"_per_request", "count"},
	} {
		if strings.HasSuffix(name, s.suffix) {
			return s.unit
		}
	}
	return "ms"
}

// sortedNames lists metric names defined ones first, in definition
// order, then the rest alphabetically.
func sortedNames[V any](m map[string]V) []string {
	var names []string
	seen := make(map[string]bool)
	for _, d := range allDefs() {
		if _, ok := m[d.Name]; ok {
			names = append(names, d.Name)
			seen[d.Name] = true
		}
	}
	var rest []string
	for n := range m {
		if !seen[n] {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	return append(names, rest...)
}

// layerFields are the suffixes of the per-layer table's columns.
var layerFields = []string{".p50", ".p99", ".calls", ".share", ".per_op"}

// printMetrics prints every metric of a run; a traced run's layers go
// in one table.
func printMetrics(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "attempted %d, failed %d\n", res.Attempted, res.Failed)
	if res.Trace {
		printLayers(w, res.Metrics)
	}
next:
	for _, n := range sortedNames(res.Metrics) {
		for _, f := range layerFields {
			if res.Trace && strings.HasSuffix(n, f) && !strings.HasPrefix(n, "obs.") {
				continue next
			}
		}
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", n, res.Metrics[n], unitOf(n))
	}
}

// printLayers prints a traced run's per-layer table: one row per
// layer, with the time per request (p50, p99), the calls, the share of
// the client's request time and, for calls made several times per
// request, the mean time per call.
func printLayers(w io.Writer, m map[string]float64) {
	fmt.Fprintf(w, "%-28s %10s %10s %8s %8s %10s\n", "layer", "p50_ms", "p99_ms", "calls", "share", "per_op_ms")
	for _, n := range sortedNames(m) {
		layer, ok := strings.CutSuffix(n, ".p50")
		if !ok {
			continue
		}
		perOp := "-"
		if v, ok := m[layer+".per_op"]; ok {
			perOp = fmt.Sprintf("%.4f", v)
		}
		fmt.Fprintf(w, "%-28s %10.4f %10.4f %8.0f %8.4f %10s\n",
			layer, m[n], m[layer+".p99"], m[layer+".calls"], m[layer+".share"], perOp)
	}
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one-line JSON result of a run: every end-to-end
// metric for an untraced run, every per-layer one for a traced run.
func resultLine(res *runResult) ([]byte, error) {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	out := make(map[string]jsonValue, len(defs))
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s was not measured", res.Workload, d.Name)
		}
		out[d.Name] = jsonValue{Value: v, Unit: d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]jsonValue `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, out})
}
