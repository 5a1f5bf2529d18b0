package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/contract"
	"repro/internal/feed"
	"repro/internal/resilience"
)

// dynamicSpec is a market-indexed contract with a declared fixed
// fallback — the degraded-mode backstop.
func dynamicSpec() *contract.Spec {
	return &contract.Spec{
		Name: "dynamic-site",
		Tariffs: []contract.TariffSpec{
			{Type: "dynamic", Multiplier: 1.1, Adder: 0.01, FallbackRate: 0.06},
		},
	}
}

// priceUpstream is a toggleable HTTP price source covering March 2016
// (the quickstart-month load window) with hourly prices.
type priceUpstream struct {
	ts   *httptest.Server
	down atomic.Bool
}

func newPriceUpstream(t *testing.T) *priceUpstream {
	t.Helper()
	start := time.Date(2016, time.March, 1, 0, 0, 0, 0, time.UTC)
	var csv strings.Builder
	csv.WriteString("timestamp,price_per_kwh\n")
	for i := 0; i < 32*24; i++ {
		fmt.Fprintf(&csv, "%s,%.4f\n",
			start.Add(time.Duration(i)*time.Hour).Format(time.RFC3339),
			0.03+0.01*float64(i%24)/24)
	}
	body := csv.String()
	u := &priceUpstream{}
	u.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if u.down.Load() {
			http.Error(w, "market endpoint down", http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "text/csv")
		_, _ = w.Write([]byte(body))
	}))
	t.Cleanup(u.ts.Close)
	return u
}

// newFeedServer wires upstream -> feed.HTTP -> feed.Cached -> Server.
func newFeedServer(t *testing.T, u *priceUpstream, ttl time.Duration) (*Server, *httptest.Server, *feed.Cached) {
	t.Helper()
	cached := feed.NewCached(&feed.HTTP{URL: u.ts.URL}, feed.CachedConfig{
		TTL:             ttl,
		StalenessBudget: time.Hour,
		Retry:           resilience.Retry{MaxAttempts: 1},
		Breaker:         &resilience.BreakerConfig{FailureThreshold: 1000},
	})
	t.Cleanup(cached.Close)
	s := NewServer(Config{PriceFeed: cached})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, cached
}

func dynamicBillRequest(t *testing.T) BillRequest {
	return BillRequest{
		Contract: specJSON(t, dynamicSpec()),
		Load:     LoadSpec{Profile: "quickstart-month"},
	}
}

func TestBillWithServerFeedFresh(t *testing.T) {
	u := newPriceUpstream(t)
	_, ts, _ := newFeedServer(t, u, time.Minute)

	resp, body := postBill(t, ts, "/v1/bill", dynamicBillRequest(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bill against live feed: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-SCBill-Feed"); got != "fresh" {
		t.Errorf("X-SCBill-Feed = %q, want fresh", got)
	}
	if strings.Contains(string(body), `"degraded"`) {
		t.Errorf("healthy feed produced a degraded-marked bill: %s", body)
	}
	// The bill priced against the upstream curve, not the flat
	// reference feed: decode and sanity-check a positive total.
	var out struct {
		Total float64 `json:"total"`
	}
	if err := json.Unmarshal(body, &out); err != nil || out.Total <= 0 {
		t.Fatalf("bill body: total=%g err=%v", out.Total, err)
	}
}

func TestBillServedStaleDuringOutage(t *testing.T) {
	u := newPriceUpstream(t)
	s, ts, _ := newFeedServer(t, u, time.Nanosecond) // every request refetches

	if resp, body := postBill(t, ts, "/v1/bill", dynamicBillRequest(t)); resp.StatusCode != http.StatusOK {
		t.Fatalf("priming bill: %d %s", resp.StatusCode, body)
	}
	u.down.Store(true)

	resp, body := postBill(t, ts, "/v1/bill", dynamicBillRequest(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bill during outage within budget: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-SCBill-Feed"); got != "stale" {
		t.Errorf("X-SCBill-Feed = %q, want stale", got)
	}
	if resp.Header.Get("X-SCBill-Feed-Age") == "" {
		t.Error("stale response missing X-SCBill-Feed-Age")
	}
	if strings.Contains(string(body), `"degraded"`) {
		t.Errorf("stale-within-budget must not be marked degraded: %s", body)
	}
	if got := s.metrics.feedStale.Value(); got != 1 {
		t.Errorf("feedStale counter = %d, want 1", got)
	}
}

func TestBillDegradesToFallback(t *testing.T) {
	u := newPriceUpstream(t)
	u.down.Store(true) // the feed never succeeds
	s, ts, _ := newFeedServer(t, u, time.Minute)

	resp, body := postBill(t, ts, "/v1/bill", dynamicBillRequest(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded bill must still be 200: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-SCBill-Feed"); got != "degraded" {
		t.Errorf("X-SCBill-Feed = %q, want degraded", got)
	}
	if resp.Header.Get("X-SCBill-Degraded") == "" {
		t.Error("degraded response missing X-SCBill-Degraded reason header")
	}
	var out struct {
		Total          float64 `json:"total"`
		Degraded       bool    `json:"degraded"`
		DegradedReason string  `json:"degraded_reason"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("degraded bill is not valid JSON: %v\n%s", err, body)
	}
	if !out.Degraded || out.DegradedReason == "" {
		t.Fatalf("degraded bill not marked: %+v", out)
	}

	// The degraded total is exactly the declared fixed fallback: bill
	// the fallback spec in process and compare.
	load := namedLoad(t, "quickstart-month")
	fb, err := dynamicSpec().FallbackSpec(contract.FlatFeedRate).Build(contract.BuildContext{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := contract.NewEngine(fb)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.BillCtx(context.Background(), load, contract.BillingInput{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Total != want.Total.Float() {
		t.Errorf("degraded total %g != fallback-tariff total %g", out.Total, want.Total.Float())
	}
	// Byte for byte, it is the fallback bill with the marker spliced in.
	wantBody, err := referenceBill(want)
	if err != nil {
		t.Fatal(err)
	}
	if wantBody = referenceMarkDegraded(wantBody, out.DegradedReason); !bytes.Equal(body, wantBody) {
		t.Errorf("degraded bill differs from the reference rendering:\n%s\nvs\n%s", body, wantBody)
	}

	if got := s.metrics.degraded.Value(); got != 1 {
		t.Errorf("degraded counter = %d, want 1", got)
	}
	if !strings.Contains(scrapeMetrics(t, ts), "scserved_degraded_total 1") {
		t.Error("metrics missing scserved_degraded_total 1")
	}
}

func TestBillDegradedMonthlyMarked(t *testing.T) {
	u := newPriceUpstream(t)
	u.down.Store(true)
	_, ts, _ := newFeedServer(t, u, time.Minute)

	resp, body := postBill(t, ts, "/v1/bill?monthly=1", dynamicBillRequest(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("monthly degraded bill: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Months         []json.RawMessage `json:"months"`
		Degraded       bool              `json:"degraded"`
		DegradedReason string            `json:"degraded_reason"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || out.DegradedReason == "" || len(out.Months) == 0 {
		t.Fatalf("monthly degraded response not marked: %s", body)
	}

	// Byte for byte, it is the reference rendering of the fallback
	// contract's months, marked.
	fb, err := dynamicSpec().FallbackSpec(contract.FlatFeedRate).Build(contract.BuildContext{})
	if err != nil {
		t.Fatal(err)
	}
	bills, err := contract.BillMonths(fb, namedLoad(t, "quickstart-month"), contract.BillingInput{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceMonthly(fb.Name, bills, degradedResolution(out.DegradedReason))
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(body, want) {
		t.Errorf("monthly degraded body differs from the reference rendering:\n%s\nvs\n%s", body, want)
	}
}

// TestExplicitFlatRateBypassesServerFeed: a request pinning its own
// flat feed rate must not consult the configured feed at all, so the
// flat-rate path keeps working even when the market feed is dead.
func TestExplicitFlatRateBypassesServerFeed(t *testing.T) {
	u := newPriceUpstream(t)
	u.down.Store(true)
	_, ts, cached := newFeedServer(t, u, time.Minute)

	req := dynamicBillRequest(t)
	req.Feed = &FeedSpec{FlatRatePerKWh: 0.05}
	resp, body := postBill(t, ts, "/v1/bill", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explicit flat rate: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-SCBill-Feed"); got != "" {
		t.Errorf("flat-rate request has feed header %q", got)
	}
	if st := cached.Stats(); st.Fresh+st.Stale+st.Degraded != 0 {
		t.Errorf("flat-rate request consulted the server feed: %+v", st)
	}
}

// TestStaticSpecIgnoresFeedConfig is the byte-identity acceptance
// check: a spec without dynamic tariffs must produce the identical
// response bytes whether or not a price feed is configured — and must
// never touch the feed, even one that is down.
func TestStaticSpecIgnoresFeedConfig(t *testing.T) {
	u := newPriceUpstream(t)
	u.down.Store(true)
	_, withFeed, cached := newFeedServer(t, u, time.Minute)

	plain := NewServer(Config{})
	plainTS := httptest.NewServer(plain.Handler())
	defer plainTS.Close()

	req := BillRequest{
		Contract: specJSON(t, quickstartSpec()),
		Load:     LoadSpec{Profile: "quickstart-month"},
	}
	respA, bodyA := postBill(t, withFeed, "/v1/bill", req)
	respB, bodyB := postBill(t, plainTS, "/v1/bill", req)
	if respA.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK {
		t.Fatalf("static bills: %d / %d", respA.StatusCode, respB.StatusCode)
	}
	if string(bodyA) != string(bodyB) {
		t.Error("static-spec bill differs between feed-configured and plain servers")
	}
	if got := respA.Header.Get("X-SCBill-Feed"); got != "" {
		t.Errorf("static spec has feed header %q", got)
	}
	if st := cached.Stats(); st.Fresh+st.Stale+st.Degraded != 0 {
		t.Errorf("static spec consulted the feed: %+v", st)
	}
}

// TestPanicRecovery pins the recovery middleware: a panicking handler
// answers 500, bumps scserved_panics_total, and the server keeps
// serving afterwards.
func TestPanicRecovery(t *testing.T) {
	s := NewServer(Config{})
	boom := true
	s.billHook = func(context.Context) {
		if boom {
			boom = false
			panic("deliberate test panic")
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := BillRequest{
		Contract: specJSON(t, quickstartSpec()),
		Load:     LoadSpec{Profile: "quickstart-month"},
	}
	resp, body := postBill(t, ts, "/v1/bill", req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: %d %s, want 500", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "internal server error") {
		t.Errorf("panic body: %s", body)
	}
	if got := s.metrics.panics.Value(); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
	if !strings.Contains(scrapeMetrics(t, ts), "scserved_panics_total 1") {
		t.Error("metrics missing scserved_panics_total 1")
	}
	// The daemon survived: the next request is served normally, and the
	// panicking request released its slot and in-flight count.
	if s.Inflight() != 0 || s.limiter.active() != 0 {
		t.Fatalf("panicked request leaked: inflight=%d active=%d", s.Inflight(), s.limiter.active())
	}
	resp, body = postBill(t, ts, "/v1/bill", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after panic: %d %s", resp.StatusCode, body)
	}
}

// TestReadyzBeforeDrain: readiness and liveness both 200 on a healthy
// server (the drain-time flip is pinned in TestShutdownDrains).
func TestReadyzBeforeDrain(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s on healthy server: %d", path, resp.StatusCode)
		}
	}
}
