package serve

// Observability-layer tests: status-code accounting (including the
// implicit-200 path), request IDs, structured/slow request logging,
// stage histograms on /metrics, and the occupancy-based Retry-After.

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return string(body)
}

// TestImplicitStatusRecorded: a handler that writes a body without an
// explicit WriteHeader must land in the code="200" series, and a late
// WriteHeader after the first Write (a no-op on the wire) must not
// reclassify the request.
func TestImplicitStatusRecorded(t *testing.T) {
	s := NewServer(Config{})

	implicit := s.instrument("/implicit", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("ok")) // no WriteHeader: implicit 200
	}))
	implicit.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/implicit", nil))

	late := s.instrument("/late", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("ok"))
		w.WriteHeader(http.StatusInternalServerError) // ignored by net/http
	}))
	late.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/late", nil))

	explicit := s.instrument("/explicit", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	explicit.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/explicit", nil))

	for _, c := range []struct {
		path, code string
		want       uint64
	}{
		{"/implicit", "200", 1},
		{"/late", "200", 1},
		{"/explicit", "418", 1},
		{"/late", "500", 0}, // a late WriteHeader after Write is not a 500
	} {
		if got := s.metrics.requests.With(c.path, c.code).Value(); got != c.want {
			t.Errorf("requests{path=%q,code=%q} = %d, want %d", c.path, c.code, got, c.want)
		}
	}
}

// TestHealthzCountsAs200 pins the end-to-end series: GET /healthz must
// appear under code="200" on /metrics.
func TestHealthzCountsAs200(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if want := `scserved_requests_total{path="/healthz",code="200"} 1`; !strings.Contains(scrapeMetrics(t, ts), want) {
		t.Errorf("metrics missing %q", want)
	}
}

// TestRequestIDIssuedAndEchoed: every response carries X-Request-ID —
// generated when absent, echoed when the client supplies one.
func TestRequestIDIssuedAndEchoed(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-ID"); len(id) != 16 {
		t.Errorf("generated request ID %q, want 16 hex digits", id)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "client-chosen-1")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-ID"); id != "client-chosen-1" {
		t.Errorf("client request ID not echoed: %q", id)
	}
}

// TestRequestLoggingAndSlowLog: requests log one structured line with
// the request ID; past the slow threshold the line is a warning with
// the threshold attached.
func TestRequestLoggingAndSlowLog(t *testing.T) {
	var buf bytes.Buffer
	s := NewServer(Config{
		Logger:      slog.New(slog.NewJSONHandler(&buf, nil)),
		SlowRequest: time.Nanosecond, // everything is slow
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "slowtest")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	line := buf.String()
	for _, want := range []string{`"slow request"`, `"request_id":"slowtest"`, `"path":"/healthz"`, `"code":200`, `"level":"WARN"`} {
		if !strings.Contains(line, want) {
			t.Errorf("slow log missing %s:\n%s", want, line)
		}
	}

	// Under the threshold: info-level "request".
	buf.Reset()
	s2 := NewServer(Config{
		Logger:      slog.New(slog.NewJSONHandler(&buf, nil)),
		SlowRequest: time.Minute,
	})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, err = ts2.Client().Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if line := buf.String(); !strings.Contains(line, `"msg":"request"`) || strings.Contains(line, "slow") {
		t.Errorf("fast request must log at info without the slow marker:\n%s", line)
	}
}

// TestStageHistogramsExposed: after a bill request, /metrics carries
// per-stage histograms — the HTTP pipeline stages and the billing
// engine's per-family spans — with full _bucket/_sum/_count exposition.
func TestStageHistogramsExposed(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postBill(t, ts, "/v1/bill", BillRequest{
		Contract: specJSON(t, quickstartSpec()),
		Load:     LoadSpec{Profile: "quickstart-month"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bill: %d %s", resp.StatusCode, body)
	}

	text := scrapeMetrics(t, ts)
	for _, want := range []string{
		`scserved_stage_seconds_bucket{stage="admission_wait",le="+Inf"} 1`,
		`scserved_stage_seconds_bucket{stage="cache",le="+Inf"} 1`,
		`scserved_stage_seconds_bucket{stage="compile",le="+Inf"} 1`,
		`scserved_stage_seconds_bucket{stage="evaluate",le="+Inf"} 1`,
		`scserved_stage_seconds_bucket{stage="encode",le="+Inf"} 1`,
		`scserved_stage_seconds_bucket{stage="billing.period",le="+Inf"} 1`,
		`scserved_stage_seconds_bucket{stage="billing.tariff",le="+Inf"} 1`,
		`scserved_stage_seconds_bucket{stage="billing.demand",le="+Inf"} 1`,
		`scserved_stage_seconds_bucket{stage="billing.powerband",le="+Inf"} 1`,
		`scserved_stage_seconds_sum{stage="evaluate"}`,
		`scserved_stage_seconds_count{stage="evaluate"} 1`,
		`scserved_request_seconds_bucket{le="+Inf"}`,
		"scserved_request_seconds_sum",
		"scserved_request_seconds_count",
		"scserved_engine_cache_capacity 128",
		"scserved_engine_compiles_inflight 0",
		"scserved_queue_capacity 64",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// A second (cached) request must not record a second compile span.
	if resp, body := postBill(t, ts, "/v1/bill", BillRequest{
		Contract: specJSON(t, quickstartSpec()),
		Load:     LoadSpec{Profile: "quickstart-month"},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("second bill: %d %s", resp.StatusCode, body)
	}
	text = scrapeMetrics(t, ts)
	for _, want := range []string{
		`scserved_stage_seconds_count{stage="compile"} 1`,
		`scserved_stage_seconds_count{stage="cache"} 2`,
		`scserved_stage_seconds_count{stage="evaluate"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("after cached request, metrics missing %q", want)
		}
	}
}

// TestRetryAfterTracksOccupancy: the 429 hint must scale with observed
// backlog and service time instead of parroting the request timeout.
func TestRetryAfterTracksOccupancy(t *testing.T) {
	s := NewServer(Config{MaxConcurrent: 2, QueueDepth: 4, RequestTimeout: 30 * time.Second})

	// Near-empty: no backlog, no history — floor of 1 s, not the 30 s
	// static timeout.
	if got := s.retryAfterHint(); got != "1" {
		t.Errorf("near-empty hint = %s, want 1", got)
	}

	// Saturated: 2 active + 4 queued with ~2 s observed service time
	// → ceil(6 × 2 / 2) = 6 s.
	for i := 0; i < 2; i++ {
		if err := s.limiter.acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		defer s.limiter.release()
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.limiter.acquire(ctx) // parks in the queue until cancel
		}()
	}
	defer wg.Wait()
	defer cancel()
	waitUntil(t, "the queue to fill", func() bool { return s.limiter.waiting() == 4 })

	for i := 0; i < 4; i++ {
		s.metrics.observeGated(classSingle, 2*time.Second)
	}
	if got := s.retryAfterHint(); got != "6" {
		t.Errorf("saturated hint = %s, want 6", got)
	}
}
