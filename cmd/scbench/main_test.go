package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkBillingYear-8         	     100	  11892503 ns/op	 4700213 B/op	    1205 allocs/op
BenchmarkBillYearLegacy-8      	     174	   6850558 ns/op	  156240 B/op	     642 allocs/op
BenchmarkBillYearEngine-8      	    1650	    731867 ns/op	   13921 B/op	      91 allocs/op
BenchmarkBillYearEngineSequential-8	 1500	    801123 ns/op	   14002 B/op	      92 allocs/op
PASS
ok  	repro	12.3s
`

func TestParseBench(t *testing.T) {
	benches, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %+v", len(benches), benches)
	}
	got := benches[2]
	if got.Name != "BenchmarkBillYearEngine" {
		t.Errorf("name %q: the -N proc suffix must be stripped", got.Name)
	}
	if got.NsPerOp != 731867 || got.BytesPerOp != 13921 || got.AllocsPerOp != 91 {
		t.Errorf("values: %+v", got)
	}
}

// TestParseBenchMedian checks that repeated lines for one benchmark,
// as -count or concatenated runs print them, reduce to their median.
func TestParseBenchMedian(t *testing.T) {
	const repeated = `BenchmarkBillYearEngine-8	1650	 731867 ns/op	 13921 B/op	 91 allocs/op
BenchmarkOptimizeYear-8	9	 126000000 ns/op
BenchmarkBillYearEngine-8	1650	 900000 ns/op	 13900 B/op	 95 allocs/op
BenchmarkBillYearEngine-8	1650	 700000 ns/op	 14000 B/op	 90 allocs/op
BenchmarkOptimizeYear-8	9	 130000000 ns/op
`
	benches, err := parseBench(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	want := []Benchmark{
		{Name: "BenchmarkBillYearEngine", NsPerOp: 731867, BytesPerOp: 13921, AllocsPerOp: 91},
		{Name: "BenchmarkOptimizeYear", NsPerOp: 128000000},
	}
	if len(benches) != len(want) {
		t.Fatalf("parsed %+v, want %+v", benches, want)
	}
	for i := range want {
		if benches[i] != want[i] {
			t.Errorf("record %d: %+v, want %+v", i, benches[i], want[i])
		}
	}
}

func TestStripProcSuffix(t *testing.T) {
	cases := map[string]string{
		"BenchmarkBillYearEngine-8":          "BenchmarkBillYearEngine",
		"BenchmarkBillYearEngine":            "BenchmarkBillYearEngine",
		"BenchmarkBatchVsSequential/batch-4": "BenchmarkBatchVsSequential/batch",
		"BenchmarkE1_Something-16":           "BenchmarkE1_Something",
		"BenchmarkOdd-name":                  "BenchmarkOdd-name",
	}
	for in, want := range cases {
		if got := stripProcSuffix(in); got != want {
			t.Errorf("stripProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func report(ns float64) Report {
	return Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkBillYearEngine", NsPerOp: ns},
		{Name: "BenchmarkBillYearLegacy", NsPerOp: 100 * ns}, // outside the gate
	}}
}

func allocReport(ns, allocs float64) Report {
	return Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkBillYearEngine", NsPerOp: ns, AllocsPerOp: allocs},
	}}
}

func TestCheckRegression(t *testing.T) {
	base := report(700000)

	if err := checkRegression(base, report(700000), "BillYearEngine", 0.15, 0.10); err != nil {
		t.Errorf("unchanged timing must pass: %v", err)
	}
	if err := checkRegression(base, report(790000), "BillYearEngine", 0.15, 0.10); err != nil {
		t.Errorf("+13%% must pass under a 15%% threshold: %v", err)
	}
	err := checkRegression(base, report(900000), "BillYearEngine", 0.15, 0.10)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkBillYearEngine") {
		t.Errorf("+29%% must fail the gate, got: %v", err)
	}
	// The legacy benchmark is outside the gate: regressing it alone is fine.
	slowLegacy := report(700000)
	slowLegacy.Benchmarks[1].NsPerOp *= 10
	if err := checkRegression(base, slowLegacy, "BillYearEngine$", 0.15, 0.10); err != nil {
		t.Errorf("non-gated benchmark must not trip the gate: %v", err)
	}

	missing := Report{Benchmarks: []Benchmark{{Name: "BenchmarkSomethingElse", NsPerOp: 1}}}
	if err := checkRegression(base, missing, "BillYearEngine", 0.15, 0.10); err == nil {
		t.Error("gate benchmark missing from the run must fail")
	}
	if err := checkRegression(base, report(700000), "NoSuchBenchmark", 0.15, 0.10); err == nil {
		t.Error("a gate matching nothing in the baseline must fail loudly")
	}
}

func TestCheckRegressionAllocGate(t *testing.T) {
	base := allocReport(700000, 90)

	if err := checkRegression(base, allocReport(700000, 90), "BillYearEngine", 0.15, 0.10); err != nil {
		t.Errorf("unchanged allocs must pass: %v", err)
	}
	if err := checkRegression(base, allocReport(700000, 95), "BillYearEngine", 0.15, 0.10); err != nil {
		t.Errorf("+5.5%% allocs must pass under a 10%% threshold: %v", err)
	}
	err := checkRegression(base, allocReport(700000, 120), "BillYearEngine", 0.15, 0.10)
	if err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Errorf("+33%% allocs must fail the alloc gate even at unchanged ns/op, got: %v", err)
	}
	// Both dimensions can fail at once; the report names each.
	err = checkRegression(base, allocReport(2000000, 200), "BillYearEngine", 0.15, 0.10)
	if err == nil || !strings.Contains(err.Error(), "ns/op") || !strings.Contains(err.Error(), "allocs/op") {
		t.Errorf("double regression must report both dimensions, got: %v", err)
	}
	// A baseline without alloc counts (no -benchmem) skips the alloc gate.
	if err := checkRegression(report(700000), allocReport(700000, 1e6), "BillYearEngine", 0.15, 0.10); err != nil {
		t.Errorf("baseline without allocs/op must skip the alloc gate: %v", err)
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH_billing.json")

	// First pass: parse and write the baseline.
	if err := run(strings.NewReader(sampleOutput), "abc1234", baseline, "", "BillYearEngine", 0.15, 0.10); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"commit": "abc1234"`, `"BenchmarkBillYearEngine"`, `"ns_per_op": 731867`, `"allocs_per_op": 91`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("baseline missing %s:\n%s", want, data)
		}
	}

	// Second pass: same numbers gate clean against the baseline.
	current := filepath.Join(dir, "BENCH_current.json")
	if err := run(strings.NewReader(sampleOutput), "def5678", current, baseline, "BillYearEngine", 0.15, 0.10); err != nil {
		t.Fatalf("identical rerun must pass the gate: %v", err)
	}

	// A 2x-slower rerun trips it.
	slow := strings.ReplaceAll(sampleOutput, "731867 ns/op", "1500000 ns/op")
	err = run(strings.NewReader(slow), "bad", current, baseline, "BillYearEngine", 0.15, 0.10)
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("2x regression must fail, got: %v", err)
	}

	if err := run(strings.NewReader("no benchmarks here\n"), "", current, "", "x", 0.15, 0.10); err == nil {
		t.Error("empty input must fail")
	}
}
