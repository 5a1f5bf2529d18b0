// Command scbench turns `go test -bench` text output into a structured
// JSON benchmark record and gates performance regressions against a
// committed baseline.
//
// Usage:
//
//	go test -run '^$' -bench BillYear -benchmem . | scbench -commit $(git rev-parse --short HEAD) -out BENCH_billing.json
//	... | scbench -out BENCH_current.json -compare BENCH_billing.json -gate BillYearEngine -threshold 0.15
//
// The first form parses the benchmark lines on stdin ("BenchmarkX-8  N
// ns/op  B/op  allocs/op", the -N GOMAXPROCS suffix stripped) and
// writes a JSON document with the commit, Go version, and one record
// per benchmark; a benchmark listed several times (-count N, or runs
// of one binary concatenated) is reduced to the median of its lines,
// each unit on its own. The second form additionally loads a baseline
// JSON file and exits nonzero when any benchmark matching -gate regressed
// its ns/op by more than -threshold (fractional: 0.15 = 15%) or its
// allocs/op by more than -alloc-threshold — the CI performance gate
// over the billing hot path. Gating allocations alongside wall time
// catches a different failure: an accidental per-sample allocation in
// the columnar kernels can hide inside run-to-run timing noise but
// never inside the alloc count, which is deterministic. Benchmarks
// whose baseline records no allocs/op (no -benchmem run) skip the
// alloc gate. A gate benchmark present in the baseline but absent from
// the current run is also a failure: a renamed benchmark must move its
// baseline in the same change.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result.
type Benchmark struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Report is the BENCH_billing.json document.
type Report struct {
	Commit     string      `json:"commit,omitempty"`
	Go         string      `json:"go"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	commit := flag.String("commit", "", "commit hash recorded in the report")
	out := flag.String("out", "", "write the JSON report here (default: stdout)")
	compare := flag.String("compare", "", "baseline JSON report to gate against")
	gate := flag.String("gate", "BillYearEngine", "regexp over benchmark names the regression gate covers")
	threshold := flag.Float64("threshold", 0.15, "max allowed fractional ns/op regression vs the baseline")
	allocThreshold := flag.Float64("alloc-threshold", 0.10, "max allowed fractional allocs/op regression vs the baseline")
	flag.Parse()

	if err := run(os.Stdin, *commit, *out, *compare, *gate, *threshold, *allocThreshold); err != nil {
		fmt.Fprintln(os.Stderr, "scbench:", err)
		os.Exit(1)
	}
}

func run(in io.Reader, commit, out, compare, gate string, threshold, allocThreshold float64) error {
	benches, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(benches) == 0 {
		return fmt.Errorf("no benchmark lines on input")
	}
	report := Report{Commit: commit, Go: runtime.Version(), Benchmarks: benches}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
	} else {
		err = os.WriteFile(out, data, 0o644)
	}
	if err != nil {
		return err
	}

	if compare == "" {
		return nil
	}
	baseData, err := os.ReadFile(compare)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(baseData, &base); err != nil {
		return fmt.Errorf("%s: %w", compare, err)
	}
	return checkRegression(base, report, gate, threshold, allocThreshold)
}

// benchLine matches one result line of `go test -bench` output:
// name, iteration count, then "value unit" pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// parseBench extracts benchmark records from go test output, dropping
// the -N GOMAXPROCS suffix from names so records are comparable across
// machines with different core counts, and reduces repeated lines for
// one benchmark to their median, in order of first appearance.
func parseBench(r io.Reader) ([]Benchmark, error) {
	var runs []Benchmark
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		b := Benchmark{Name: stripProcSuffix(m[1])}
		fields := strings.Fields(m[2])
		ok := false
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark %s: bad value %q", b.Name, fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp, ok = v, true
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			}
		}
		if ok {
			runs = append(runs, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return medians(runs), nil
}

// medians reduces each benchmark's runs to one record holding the
// median of every unit, in order of first appearance.
func medians(runs []Benchmark) []Benchmark {
	byName := map[string][]Benchmark{}
	var out []Benchmark
	for _, b := range runs {
		if _, seen := byName[b.Name]; !seen {
			out = append(out, Benchmark{Name: b.Name})
		}
		byName[b.Name] = append(byName[b.Name], b)
	}
	for i := range out {
		rs := byName[out[i].Name]
		out[i].NsPerOp = median(rs, func(b Benchmark) float64 { return b.NsPerOp })
		out[i].BytesPerOp = median(rs, func(b Benchmark) float64 { return b.BytesPerOp })
		out[i].AllocsPerOp = median(rs, func(b Benchmark) float64 { return b.AllocsPerOp })
	}
	return out
}

// median is the middle value of field over runs, or the mean of the
// two middle values when there are an even number.
func median(runs []Benchmark, field func(Benchmark) float64) float64 {
	v := make([]float64, len(runs))
	for i, b := range runs {
		v[i] = field(b)
	}
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// stripProcSuffix removes the trailing -N parallelism marker go test
// appends to benchmark names ("BenchmarkBillYearEngine-8"), leaving
// sub-benchmark paths intact.
func stripProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// checkRegression fails when a gate-matching benchmark got more than
// threshold slower (ns/op) or more than allocThreshold heavier
// (allocs/op) than the baseline, or disappeared from the run.
func checkRegression(base, cur Report, gate string, threshold, allocThreshold float64) error {
	re, err := regexp.Compile(gate)
	if err != nil {
		return fmt.Errorf("bad -gate regexp: %w", err)
	}
	current := make(map[string]Benchmark, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		current[b.Name] = b
	}
	gated := 0
	var failures []string
	for _, b := range base.Benchmarks {
		if !re.MatchString(b.Name) {
			continue
		}
		gated++
		got, ok := current[b.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline but missing from this run", b.Name))
			continue
		}
		if b.NsPerOp > 0 {
			delta := (got.NsPerOp - b.NsPerOp) / b.NsPerOp
			if delta > threshold {
				failures = append(failures, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (%+.1f%%, limit %+.0f%%)",
					b.Name, got.NsPerOp, b.NsPerOp, delta*100, threshold*100))
			}
		}
		// Alloc counts are deterministic per run (no timing noise), so
		// the gate is meaningful even at tight thresholds; baselines
		// recorded without -benchmem carry no count and skip it.
		if b.AllocsPerOp > 0 {
			delta := (got.AllocsPerOp - b.AllocsPerOp) / b.AllocsPerOp
			if delta > allocThreshold {
				failures = append(failures, fmt.Sprintf("%s: %.0f allocs/op vs baseline %.0f (%+.1f%%, limit %+.0f%%)",
					b.Name, got.AllocsPerOp, b.AllocsPerOp, delta*100, allocThreshold*100))
			}
		}
	}
	if gated == 0 {
		return fmt.Errorf("regression gate %q matches no baseline benchmark", gate)
	}
	if len(failures) > 0 {
		return fmt.Errorf("performance regression:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}
