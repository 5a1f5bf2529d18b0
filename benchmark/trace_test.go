package main

import (
	"math"
	"testing"
)

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 30, End: 50}}, 70},
		{"overlapping", []span{{Start: 10, End: 40}, {Start: 30, End: 60}, {Start: 35, End: 45}}, 50},
		{"nested", []span{{Start: 10, End: 90}, {Start: 20, End: 30}}, 20},
		{"outside the parent", []span{{Start: 90, End: 130}, {Start: -20, End: 5}}, 85},
		{"covering", []span{{Start: 0, End: 100}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// The layer times of one request telescope: the client's time is the
// sum of the transport, router, backend, glue and pipeline-call times.
func TestLayerTimesTelescope(t *testing.T) {
	ms := int64(1e6)
	spans := []span{
		{ID: 1, Name: "client.request", Start: 0, End: 10 * ms},
		{ID: 2, Name: "route.handler", Start: 10 * ms, End: 18 * ms},
		{ID: 3, Name: "serve.http", Start: 18 * ms, End: 24 * ms},
		{ID: 4, Name: "serve.handler", Start: 24 * ms, End: 29 * ms},
		{ID: 5, Name: "pipeline", Start: 29 * ms, End: 34 * ms},
		{ID: 6, Parent: 5, Name: "serve.decode", Start: 29 * ms, End: 30 * ms},
		{ID: 7, Parent: 5, Name: "hpc.synthesize", Start: 30 * ms, End: 31 * ms},
		{ID: 8, Parent: 5, Name: "contract.bill_columnar", Start: 31 * ms, End: 33 * ms},
		{ID: 9, Name: "route.key", Start: 34 * ms, End: 35 * ms},
	}
	lt := layerTimes(spans)
	want := map[string]float64{
		"client.transport_ms": 2, "route.self_ms": 2, "serve.transport_ms": 1, "serve.glue_ms": 1,
		"serve.decode_ms": 1, "load_ms": 1, "evaluate_ms": 2, "route.key_ms": 1, "pipeline.self_ms": 1,
	}
	for k, v := range want {
		if math.Abs(lt[k]-v) > 1e-9 {
			t.Errorf("%s = %g, want %g", k, lt[k], v)
		}
	}
	sum := lt["client.transport_ms"] + lt["route.self_ms"] + lt["serve.transport_ms"] + lt["serve.glue_ms"] +
		lt["serve.decode_ms"] + lt["load_ms"] + lt["evaluate_ms"]
	if math.Abs(sum-lt["client.request_ms"]) > 1e-9 {
		t.Errorf("layers sum to %g ms, the client saw %g ms", sum, lt["client.request_ms"])
	}
}
