package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRequestIDRoundTrip(t *testing.T) {
	id := NewRequestID()
	if len(id) != 16 {
		t.Errorf("request ID %q, want 16 hex digits", id)
	}
	if id2 := NewRequestID(); id2 == id {
		t.Errorf("two request IDs collided: %q", id)
	}
	ctx := WithRequestID(context.Background(), id)
	if got := RequestIDFrom(ctx); got != id {
		t.Errorf("RequestIDFrom = %q, want %q", got, id)
	}
	if got := RequestIDFrom(context.Background()); got != "" {
		t.Errorf("bare context request ID = %q, want empty", got)
	}
}

func TestSpanNoOpWithoutRegistry(t *testing.T) {
	// Must not panic and must not record anywhere.
	end := Span(context.Background(), "compile")
	end()
}

func TestSpanRecordsIntoRegistry(t *testing.T) {
	reg := NewRegistry()
	ctx := WithSpans(context.Background(), reg)
	end := Span(ctx, "compile")
	time.Sleep(time.Millisecond)
	end()

	snaps := reg.Snapshot()
	if len(snaps) != 1 || snaps[0].Name != "compile" {
		t.Fatalf("snapshot = %+v, want one span named compile", snaps)
	}
	if snaps[0].Count != 1 || snaps[0].Sum <= 0 {
		t.Errorf("span stats: count=%d sum=%g", snaps[0].Count, snaps[0].Sum)
	}
	if reg2 := SpansFrom(ctx); reg2 != reg {
		t.Error("SpansFrom must return the attached registry")
	}
}

func TestHistogramBucketsAndExposition(t *testing.T) {
	h := NewHistogram(0.001, 0.01, 0.1)
	for _, v := range []float64{0.0005, 0.002, 0.05, 99} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	// Per-bucket: <=0.001 gets one, <=0.01 one, <=0.1 one, +Inf one.
	for i, want := range []uint64{1, 1, 1, 1} {
		if s.Counts[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], want)
		}
	}

	m := NewMetrics()
	mh := m.Histogram("t_seconds", "T.")
	for _, v := range []float64{0.0005, 0.002, 0.05, 99} {
		mh.Observe(v)
	}
	text := scrape(m)
	for _, want := range []string{
		`t_seconds_bucket{le="0.001"} 1`,
		`t_seconds_bucket{le="0.01"} 2`,
		`t_seconds_bucket{le="0.1"} 3`,
		`t_seconds_bucket{le="+Inf"} 4`,
		"t_seconds_count 4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	reg := NewRegistry(0.001, 0.01, 0.1)
	for _, v := range []float64{0.0005, 0.002, 0.05, 99} {
		reg.Observe("compile", v)
	}
	m = NewMetrics()
	m.Histograms("t_seconds", "T.", "stage", reg)
	labeled := scrape(m)
	for _, want := range []string{
		`t_seconds_bucket{stage="compile",le="+Inf"} 4`,
		`t_seconds_sum{stage="compile"}`,
		`t_seconds_count{stage="compile"} 4`,
	} {
		if !strings.Contains(labeled, want) {
			t.Errorf("labeled exposition missing %q:\n%s", want, labeled)
		}
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram(1, 2)
	if got := h.Snapshot().Mean(); got != 0 {
		t.Errorf("empty mean = %g, want 0", got)
	}
	h.Observe(1)
	h.Observe(3)
	if got := h.Snapshot().Mean(); got != 2 {
		t.Errorf("mean = %g, want 2", got)
	}
}

func TestFormatBound(t *testing.T) {
	cases := map[float64]string{0.0005: "0.0005", 2.5: "2.5", 1: "1", 10: "10"}
	for v, want := range cases {
		if got := FormatBound(v); got != want {
			t.Errorf("FormatBound(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry(0.1, 1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				reg.Observe("a", 0.05)
				reg.Observe("b", 0.5)
			}
		}()
	}
	wg.Wait()
	snaps := reg.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("snapshot names = %d, want 2", len(snaps))
	}
	for _, s := range snaps {
		if s.Count != 800 {
			t.Errorf("span %s count = %d, want 800", s.Name, s.Count)
		}
	}
}
