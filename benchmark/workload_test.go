package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		draw := func(seed int64) ([]descriptor, [][]byte) {
			in, err := newInputs(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			ds := in.stream().take(50)
			bodies := make([][]byte, len(ds))
			for i, d := range ds {
				bodies[i] = in.body(d)
			}
			return ds, bodies
		}
		d1, b1 := draw(1)
		d1again, b1again := draw(1)
		d2, b2 := draw(2)
		if !reflect.DeepEqual(d1, d1again) || !reflect.DeepEqual(b1, b1again) {
			t.Errorf("%s: seed 1 gave two different request streams", w.name)
		}
		if reflect.DeepEqual(d1, d2) || reflect.DeepEqual(b1, b2) {
			t.Errorf("%s: seeds 1 and 2 gave the same request stream", w.name)
		}
		for _, b := range b1 {
			if !json.Valid(b) {
				t.Fatalf("%s: request body is not JSON: %.200s", w.name, b)
			}
		}
	}
}

// A quarter of the mixed pool is CPP, which bills on the per-sample
// walk; batch-inline and optimize must stay on the columnar kernels.
func TestSpecPoolsCPPSplit(t *testing.T) {
	want := map[string]int{"bill-open": 12, "batch-profile": 12, "batch-inline": 0, "optimize": 0}
	for _, w := range workloads {
		for _, seed := range []int64{1, 2, 3} {
			in, err := newInputs(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			walk := 0
			for _, raw := range in.specs {
				eng, _, err := compileSpec(raw)
				if err != nil {
					t.Fatalf("%s seed %d: %v", w.name, seed, err)
				}
				if !eng.Columnar() {
					walk++
				}
			}
			if walk != want[w.name] {
				t.Errorf("%s seed %d: %d of %d specs bill on the walk, want %d", w.name, seed, walk, len(in.specs), want[w.name])
			}
		}
	}
}

func TestBatchBodySize(t *testing.T) {
	in, err := newInputs(workloads[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(in.body(in.stream().next())); n < 700<<10 || n > 1000<<10 {
		t.Errorf("a batch-inline body is %d bytes, want about 842 KB", n)
	}
}

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricsAgreeWithBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	for _, d := range allDefs() {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the benchmark %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %+v, the benchmark %+v", i, m, d)
		}
	}
}
