package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/contract"
	"repro/internal/hpc"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// quickstartSpec is the survey's modal contract shape (examples/
// quickstart): fixed tariff + 3-peak demand charge + upper powerband.
func quickstartSpec() *contract.Spec {
	return &contract.Spec{
		Name:          "quickstart-site",
		Tariffs:       []contract.TariffSpec{{Type: "fixed", Rate: 0.085}},
		DemandCharges: []contract.DemandChargeSpec{{PricePerKW: 12, Method: "n-peak-average", NPeaks: 3}},
		Powerbands:    []contract.PowerbandSpec{{UpperKW: 18000, OverPenalty: 0.40}},
	}
}

// kitchenSinkSpec exercises every spec-expressible component kind at
// once: all four tariff types, all three demand-charge methods' worth
// of variety, a two-sided powerband, an emergency obligation and fees.
func kitchenSinkSpec() *contract.Spec {
	return &contract.Spec{
		Name: "kitchen-sink-service",
		Tariffs: []contract.TariffSpec{
			{Type: "tou", DayRate: 0.02, NightRate: 0.005, SummerDayRate: 0.04, DayFrom: 8, DayTo: 20},
			{Type: "dynamic", Multiplier: 1.1, Adder: 0.012},
			{Type: "fixed", Rate: 0.05},
			{Type: "cpp", Rate: 0.03, CriticalRate: 0.5, MaxCriticalEvents: 3},
		},
		DemandCharges: []contract.DemandChargeSpec{
			{PricePerKW: 11, Method: "single-peak"},
			{PricePerKW: 4, Method: "ratchet", RatchetFraction: 0.8},
		},
		Powerbands: []contract.PowerbandSpec{
			{LowerKW: 6000, UpperKW: 19000, UnderPenalty: 0.2, OverPenalty: 0.6},
		},
		Emergencies: []contract.EmergencySpec{
			{Name: "grid-emergency", CapKW: 6000, NoticeMinutes: 30, Penalty: 1.5},
		},
		Fees: []contract.FeeSpec{
			{Name: "metering", Amount: 500},
			{Name: "grid levy", Amount: 1250},
		},
	}
}

func specJSON(t *testing.T, s *contract.Spec) json.RawMessage {
	t.Helper()
	data, err := contract.EncodeSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func namedLoad(t *testing.T, name string) *timeseries.PowerSeries {
	t.Helper()
	load, err := hpc.SyntheticFacilityLoad(NamedProfiles()[name])
	if err != nil {
		t.Fatal(err)
	}
	return load
}

// referenceFeed reproduces the server's flat feed construction so
// in-process bills use the identical dynamic-tariff prices.
func referenceFeed(load *timeseries.PowerSeries, rate float64) *timeseries.PriceSeries {
	n := int(load.End().Sub(load.Start())/time.Hour) + 1
	return timeseries.ConstantPrice(load.Start(), time.Hour, n, units.EnergyPrice(rate))
}

func postBill(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	resp, out, err := post(ts, path, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// post sends body as JSON and reads the whole response; unlike
// postBill it may run off the test goroutine.
func post(ts *httptest.Server, path string, body any) (*http.Response, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp, out, err
}

// postBillAsync fires a request from a background goroutine, where
// t.Fatal is off-limits; callers only care that the request parks in
// billHook, not about its response.
func postBillAsync(ts *httptest.Server, path string, body any) {
	data, _ := json.Marshal(body)
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err == nil {
		resp.Body.Close()
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestBillEndpointMatchesInProcess is the end-to-end acceptance check:
// POST /v1/bill must return byte-identical JSON to the in-process
// contract.ComputeBill for the quickstart and kitchen-sink contracts,
// and for a dynamic contract at requested flat rates, built in process
// over a constant feed covering the load's own span (the tariff line
// prints the feed mean). The server keys the flat feed on its rate
// alone, so the year-in-life case reuses the engine the month case at
// the same rate compiled.
func TestBillEndpointMatchesInProcess(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	events := []EventSpec{{Start: time.Date(2016, time.March, 10, 12, 0, 0, 0, time.UTC), DurationMinutes: 120}}
	cases := []struct {
		name    string
		spec    *contract.Spec
		profile string
		input   *InputSpec
		rate    float64 // requested flat feed rate; 0 sends none
	}{
		{"quickstart", quickstartSpec(), "quickstart-month", nil, 0},
		{"kitchen-sink", kitchenSinkSpec(), "peaky-month",
			&InputSpec{HistoricalPeakKW: 21000, Events: events}, 0},
		{"dynamic-month", dynamicSpec(), "quickstart-month", nil, 0.12345},
		{"dynamic-year", dynamicSpec(), "year-in-life", nil, 0.12345},
		{"dynamic-year-default", dynamicSpec(), "year-in-life", nil, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := BillRequest{
				Contract: specJSON(t, tc.spec),
				Load:     LoadSpec{Profile: tc.profile},
				Input:    tc.input,
			}
			rate := contract.FlatFeedRate
			if tc.rate > 0 {
				req.Feed = &FeedSpec{FlatRatePerKWh: tc.rate}
				rate = tc.rate
			}
			resp, body := postBill(t, ts, "/v1/bill", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}

			// The same computation in-process.
			load := namedLoad(t, tc.profile)
			c, err := tc.spec.Build(contract.BuildContext{Feed: referenceFeed(load, rate)})
			if err != nil {
				t.Fatal(err)
			}
			in := resolveInput(tc.input)
			bill, err := contract.ComputeBill(c, load, in)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceBill(bill)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want) {
				t.Errorf("served bill differs from in-process bill:\n%s\nvs\n%s", body, want)
			}
		})
	}
}

// TestBillEndpointMonthly checks ?monthly=1 routes through the monthly
// evaluator and each month's total matches the in-process path down to
// the JSON token.
func TestBillEndpointMonthly(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := quickstartSpec()
	resp, body := postBill(t, ts, "/v1/bill?monthly=1", BillRequest{
		Contract: specJSON(t, spec),
		Load:     LoadSpec{Profile: "year-in-life"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Contract string `json:"contract"`
		Months   []struct {
			Total json.Number `json:"total"`
		} `json:"months"`
		GrandTotal float64 `json:"grand_total"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad monthly response: %v\n%s", err, body)
	}

	load := namedLoad(t, "year-in-life")
	c, err := spec.Build(contract.BuildContext{})
	if err != nil {
		t.Fatal(err)
	}
	bills, err := contract.BillMonths(c, load, contract.BillingInput{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Months) != len(bills) || len(bills) != 12 {
		t.Fatalf("%d served months, %d in-process, want 12", len(out.Months), len(bills))
	}
	for i, b := range bills {
		// Compare the literal JSON token, not a parsed float: the
		// served number must be byte-identical to what encoding/json
		// renders.
		var one struct {
			Total json.Number `json:"total"`
		}
		data, err := referenceBill(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &one); err != nil {
			t.Fatal(err)
		}
		if out.Months[i].Total != one.Total {
			t.Errorf("month %d: served total %s != in-process %s", i, out.Months[i].Total, one.Total)
		}
	}
	if want := contract.TotalOf(bills).Float(); out.GrandTotal != want {
		t.Errorf("grand total %v != %v", out.GrandTotal, want)
	}
	want, err := referenceMonthly(spec.Name, bills, feedResolution{})
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(body, want) {
		t.Errorf("served monthly body differs from the reference rendering:\n%s\nvs\n%s", body, want)
	}
}

// TestEngineCacheReuse proves compile-once-bill-many: a second request
// with the same spec — even formatted differently — hits the cache and
// does not trigger a second Build.
func TestEngineCacheReuse(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := BillRequest{
		Contract: specJSON(t, quickstartSpec()),
		Load:     LoadSpec{Profile: "quickstart-month"},
	}
	if resp, body := postBill(t, ts, "/v1/bill", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d %s", resp.StatusCode, body)
	}
	if st := s.cache.stats(); st.misses != 1 || st.compiles != 1 || st.hits != 0 {
		t.Fatalf("after first request: %+v", st)
	}

	// Re-send with cosmetically different spec JSON: compact instead of
	// indented, so the raw bytes differ but the canonical hash agrees.
	compact := &bytes.Buffer{}
	if err := json.Compact(compact, req.Contract); err != nil {
		t.Fatal(err)
	}
	req.Contract = compact.Bytes()
	if resp, body := postBill(t, ts, "/v1/bill", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("second request: %d %s", resp.StatusCode, body)
	}
	st := s.cache.stats()
	if st.hits != 1 || st.compiles != 1 {
		t.Errorf("second request must be a cache hit with no new compile: %+v", st)
	}

	// The metrics endpoint exposes the counters.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"scserved_engine_cache_hits_total 1",
		"scserved_engine_cache_misses_total 1",
		"scserved_engine_compiles_total 1",
		`scserved_requests_total{path="/v1/bill",code="200"} 2`,
		"scserved_request_seconds_bucket",
		"scserved_in_flight 0",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestCacheKeySeparatesFeeds pins the cache-keying subtlety: the same
// dynamic-tariff spec against a different feed is a different engine,
// while feed changes do not fragment cache entries of feed-independent
// specs.
func TestCacheKeySeparatesFeeds(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	dynamic := &contract.Spec{
		Name:    "dynamic-site",
		Tariffs: []contract.TariffSpec{{Type: "dynamic", Multiplier: 1.0}},
	}
	for _, rate := range []float64{0.045, 0.09} {
		resp, body := postBill(t, ts, "/v1/bill", BillRequest{
			Contract: specJSON(t, dynamic),
			Load:     LoadSpec{Profile: "quickstart-month"},
			Feed:     &FeedSpec{FlatRatePerKWh: rate},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rate %v: %d %s", rate, resp.StatusCode, body)
		}
	}
	if st := s.cache.stats(); st.compiles != 2 {
		t.Errorf("two feeds over a dynamic spec must compile twice, got %+v", st)
	}

	// A feed-independent spec ignores the feed entirely.
	for _, rate := range []float64{0.045, 0.09} {
		resp, body := postBill(t, ts, "/v1/bill", BillRequest{
			Contract: specJSON(t, quickstartSpec()),
			Load:     LoadSpec{Profile: "quickstart-month"},
			Feed:     &FeedSpec{FlatRatePerKWh: rate},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rate %v: %d %s", rate, resp.StatusCode, body)
		}
	}
	if st := s.cache.stats(); st.compiles != 3 {
		t.Errorf("fixed spec must share one engine across feeds, got %+v", st)
	}
}

// TestBackpressureSheds429 saturates the single evaluation slot with no
// queue: the second request must be shed immediately with 429 and a
// Retry-After hint.
func TestBackpressureSheds429(t *testing.T) {
	s := NewServer(Config{MaxConcurrent: 1, QueueDepth: -1})
	release := make(chan struct{})
	s.billHook = func(ctx context.Context) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := BillRequest{
		Contract: specJSON(t, quickstartSpec()),
		Load:     LoadSpec{Profile: "quickstart-month"},
	}
	firstDone := make(chan int, 1)
	go func() {
		resp, _ := postBill(t, ts, "/v1/bill", req)
		firstDone <- resp.StatusCode
	}()
	waitUntil(t, "first request to hold the slot", func() bool { return s.limiter.active() == 1 })

	resp, body := postBill(t, ts, "/v1/bill", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server must shed with 429, got %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}
	if s.metrics.shed.Value() != 1 {
		t.Errorf("shed counter = %d, want 1", s.metrics.shed.Value())
	}

	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Errorf("in-flight request must complete normally, got %d", code)
	}
}

// TestQueueWaitHonorsDeadline: a queued request whose deadline expires
// before a slot frees up gets 504, not an indefinite hang.
func TestQueueWaitHonorsDeadline(t *testing.T) {
	s := NewServer(Config{MaxConcurrent: 1, QueueDepth: 1, RequestTimeout: 80 * time.Millisecond})
	release := make(chan struct{})
	s.billHook = func(context.Context) { <-release }
	ts := httptest.NewServer(s.Handler())
	// Unblock the parked request before ts.Close waits on it.
	defer func() {
		close(release)
		ts.Close()
	}()

	req := BillRequest{
		Contract: specJSON(t, quickstartSpec()),
		Load:     LoadSpec{Profile: "quickstart-month"},
	}
	go postBillAsync(ts, "/v1/bill", req)
	waitUntil(t, "slot held", func() bool { return s.limiter.active() == 1 })

	resp, body := postBill(t, ts, "/v1/bill", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued past deadline must 504, got %d: %s", resp.StatusCode, body)
	}
}

// TestQueuedClientCancelIsNotA504: a client that hangs up while its
// request waits for a slot is a cancellation, not a server timeout —
// it must be counted as a client cancel and must not produce a 504.
func TestQueuedClientCancelIsNotA504(t *testing.T) {
	s := NewServer(Config{MaxConcurrent: 1, QueueDepth: 1, RequestTimeout: 30 * time.Second})
	release := make(chan struct{})
	s.billHook = func(context.Context) { <-release }
	ts := httptest.NewServer(s.Handler())
	defer func() {
		close(release)
		ts.Close()
	}()

	req := BillRequest{
		Contract: specJSON(t, quickstartSpec()),
		Load:     LoadSpec{Profile: "quickstart-month"},
	}
	go postBillAsync(ts, "/v1/bill", req)
	waitUntil(t, "slot held", func() bool { return s.limiter.active() == 1 })

	// The second request queues behind the parked bill, then its client
	// disconnects.
	ctx, cancel := context.WithCancel(context.Background())
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/bill", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	clientErr := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(hr)
		if err == nil {
			resp.Body.Close()
		}
		clientErr <- err
	}()
	waitUntil(t, "second request to queue", func() bool { return s.limiter.waiting() == 1 })

	cancel()
	if err := <-clientErr; err == nil {
		t.Fatal("canceled request must fail client-side")
	}
	waitUntil(t, "the cancel to be counted", func() bool {
		return s.metrics.clientCancels.Value() == 1
	})

	if got504 := s.metrics.requests.With("/v1/bill", "504").Value(); got504 != 0 {
		t.Errorf("client cancel miscounted as %d 504(s)", got504)
	}
}

// TestRetryAfterUsesClassMix: the Retry-After estimate must price the
// backlog by what is pending, not by the overall historical mean — a
// queue of single bills is not slower because a 64-item batch ran an
// hour ago, and a queue of batches is not faster because single bills
// usually dominate.
func TestRetryAfterUsesClassMix(t *testing.T) {
	s := NewServer(Config{MaxConcurrent: 1, QueueDepth: 8})

	// Service history: palatial batches next to quick single bills.
	for i := 0; i < 3; i++ {
		s.metrics.observeGated(classBatch, 40*time.Second)
		s.metrics.observeGated(classSingle, 100*time.Millisecond)
	}

	// Backlog: one active + two waiting.
	if err := s.limiter.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.limiter.release()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.limiter.acquire(ctx)
		}()
	}
	defer wg.Wait()
	defer cancel()
	waitUntil(t, "the queue to fill", func() bool { return s.limiter.waiting() == 2 })

	// All-singles backlog: ceil(3 × 0.1 s / 1) = 1 s, not the ~60 s the
	// batch-inflated overall mean would suggest.
	s.metrics.class(classSingle).pending.Add(3)
	if got := s.retryAfterHint(); got != "1" {
		t.Errorf("all-singles backlog hint = %s, want 1", got)
	}
	s.metrics.class(classSingle).pending.Add(-3)

	// All-batches backlog: ceil(3 × 40 s / 1) clamps to the 60 s cap.
	s.metrics.class(classBatch).pending.Add(3)
	if got := s.retryAfterHint(); got != "60" {
		t.Errorf("all-batches backlog hint = %s, want 60", got)
	}
	s.metrics.class(classBatch).pending.Add(-3)
}

// TestEvaluationHonorsDeadline: once the request deadline passes,
// evaluation itself stops (the context is threaded into the engine) and
// the client gets 504.
func TestEvaluationHonorsDeadline(t *testing.T) {
	s := NewServer(Config{RequestTimeout: 30 * time.Millisecond})
	s.billHook = func(ctx context.Context) { <-ctx.Done() }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postBill(t, ts, "/v1/bill", BillRequest{
		Contract: specJSON(t, quickstartSpec()),
		Load:     LoadSpec{Profile: "quickstart-month"},
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired evaluation must 504, got %d: %s", resp.StatusCode, body)
	}
}

// TestShutdownDrains is the graceful-shutdown acceptance check: during
// Shutdown an in-flight bill completes, new requests are refused, and
// Shutdown returns once the last request drains.
func TestShutdownDrains(t *testing.T) {
	s := NewServer(Config{})
	release := make(chan struct{})
	s.billHook = func(context.Context) { <-release }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := BillRequest{
		Contract: specJSON(t, quickstartSpec()),
		Load:     LoadSpec{Profile: "quickstart-month"},
	}
	firstDone := make(chan int, 1)
	go func() {
		resp, _ := postBill(t, ts, "/v1/bill", req)
		firstDone <- resp.StatusCode
	}()
	waitUntil(t, "request in flight", func() bool { return s.Inflight() == 1 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	waitUntil(t, "drain to begin", s.Draining)

	// New work is refused while draining.
	resp, body := postBill(t, ts, "/v1/bill", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server must refuse new work with 503, got %d: %s", resp.StatusCode, body)
	}
	// Probe split during drain: liveness stays 200 (the process is
	// healthy, just finishing up) while readiness flips to 503 so the
	// balancer stops routing here.
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || !strings.Contains(string(hbody), "draining") {
		t.Errorf("healthz during drain must stay 200 and report draining: %d %s", hresp.StatusCode, hbody)
	}
	rresp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rbody, _ := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(rbody), "draining") {
		t.Errorf("readyz during drain must 503: %d %s", rresp.StatusCode, rbody)
	}

	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned before the in-flight bill drained: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Errorf("in-flight bill must complete during drain, got %d", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestShutdownUnderQueuedLoad drills the drain semantics the single
// in-flight test above cannot: requests parked inside limiter.acquire
// are admitted work (beginRequest ran) and must complete with 200 once
// slots free up — never be 503'd mid-drain — while multiple concurrent
// and repeated Shutdown calls all return cleanly.
func TestShutdownUnderQueuedLoad(t *testing.T) {
	cases := []struct {
		name      string
		queued    int // requests parked in limiter.acquire behind the slot holder
		shutdowns int // concurrent Shutdown calls
	}{
		{"queued request completes", 1, 1},
		{"concurrent shutdowns", 1, 2},
		{"deep queue drains", 3, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewServer(Config{MaxConcurrent: 1, QueueDepth: 8, RequestTimeout: 30 * time.Second})
			release := make(chan struct{})
			s.billHook = func(context.Context) { <-release }
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			data, err := json.Marshal(BillRequest{
				Contract: specJSON(t, quickstartSpec()),
				Load:     LoadSpec{Profile: "quickstart-month"},
			})
			if err != nil {
				t.Fatal(err)
			}
			codes := make(chan int, 1+tc.queued)
			for i := 0; i < 1+tc.queued; i++ {
				go func() {
					resp, err := ts.Client().Post(ts.URL+"/v1/bill", "application/json", bytes.NewReader(data))
					if err != nil {
						codes <- 0
						return
					}
					resp.Body.Close()
					codes <- resp.StatusCode
				}()
			}
			waitUntil(t, "slot held and queue parked", func() bool {
				return s.limiter.active() == 1 && s.limiter.waiting() == tc.queued
			})

			shutdownDone := make(chan error, tc.shutdowns)
			for i := 0; i < tc.shutdowns; i++ {
				go func() {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					defer cancel()
					shutdownDone <- s.Shutdown(ctx)
				}()
			}
			waitUntil(t, "drain to begin", s.Draining)

			// Fresh work is refused while the queue drains.
			resp, body := postBill(t, ts, "/v1/bill", BillRequest{
				Contract: specJSON(t, quickstartSpec()),
				Load:     LoadSpec{Profile: "quickstart-month"},
			})
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("draining server must 503 new work, got %d: %s", resp.StatusCode, body)
			}

			// No Shutdown may return while admitted requests are parked.
			select {
			case err := <-shutdownDone:
				t.Fatalf("Shutdown returned with requests still parked: %v", err)
			case <-time.After(50 * time.Millisecond):
			}

			close(release)
			for i := 0; i < 1+tc.queued; i++ {
				if code := <-codes; code != http.StatusOK {
					t.Errorf("admitted request %d finished %d, want 200 (queued work must drain, not 503)", i, code)
				}
			}
			for i := 0; i < tc.shutdowns; i++ {
				if err := <-shutdownDone; err != nil {
					t.Errorf("Shutdown %d: %v", i, err)
				}
			}

			// A late Shutdown on a drained server returns immediately.
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("repeat Shutdown after drain: %v", err)
			}
		})
	}
}

// TestShutdownDeadline: Shutdown gives up with the context error when a
// request refuses to drain in time.
func TestShutdownDeadline(t *testing.T) {
	s := NewServer(Config{})
	release := make(chan struct{})
	s.billHook = func(context.Context) { <-release }
	ts := httptest.NewServer(s.Handler())
	defer func() {
		close(release)
		ts.Close()
	}()

	go postBillAsync(ts, "/v1/bill", BillRequest{
		Contract: specJSON(t, quickstartSpec()),
		Load:     LoadSpec{Profile: "quickstart-month"},
	})
	waitUntil(t, "request in flight", func() bool { return s.Inflight() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Errorf("Shutdown past deadline = %v, want DeadlineExceeded", err)
	}
}

func TestSurveyEndpoints(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", path, resp.StatusCode, body)
		}
		return body
	}

	var roster []struct {
		Name, Country, Region string
	}
	if err := json.Unmarshal(get("/v1/survey/roster"), &roster); err != nil {
		t.Fatal(err)
	}
	if len(roster) != 10 || !strings.Contains(roster[0].Name, "Medium-range Weather") {
		t.Errorf("roster: %+v", roster)
	}

	var records []struct {
		ID         int      `json:"id"`
		Components []string `json:"components"`
		RNP        string   `json:"rnp"`
	}
	if err := json.Unmarshal(get("/v1/survey/records"), &records); err != nil {
		t.Fatal(err)
	}
	if len(records) != 10 || records[0].ID != 1 || records[0].RNP != "External" {
		t.Errorf("records: %+v", records)
	}
	if want := []string{"demand-charge", "fixed-tariff", "time-of-use-tariff"}; fmt.Sprint(records[0].Components) != fmt.Sprint(want) {
		t.Errorf("site 1 components = %v, want %v", records[0].Components, want)
	}

	var typ struct {
		Figure1 struct {
			Title    string `json:"title"`
			Children []any  `json:"children"`
		} `json:"figure1"`
		MatrixCounts  map[string]int `json:"matrix_counts"`
		RNP           map[string]int `json:"rnp"`
		Sites         int            `json:"sites"`
		Discrepancies []any          `json:"discrepancies"`
	}
	if err := json.Unmarshal(get("/v1/survey/typology"), &typ); err != nil {
		t.Fatal(err)
	}
	if typ.Figure1.Title != "SC electricity service contract" || len(typ.Figure1.Children) != 3 {
		t.Errorf("figure1: %+v", typ.Figure1)
	}
	if typ.Sites != 10 || typ.MatrixCounts["fixed-tariff"] != 7 || typ.RNP["Internal"] != 6 {
		t.Errorf("counts: %+v", typ)
	}
	if len(typ.Discrepancies) != 4 {
		t.Errorf("want the 4 text/matrix discrepancies, got %d", len(typ.Discrepancies))
	}
}

func TestAdviseEndpoint(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cheap := &contract.Spec{Name: "flat-cheap",
		Tariffs: []contract.TariffSpec{{Type: "fixed", Rate: 0.05}}}
	pricey := &contract.Spec{Name: "flat-pricey",
		Tariffs: []contract.TariffSpec{{Type: "fixed", Rate: 0.12}}}

	resp, body := postBill(t, ts, "/v1/advise", AdviseRequest{
		Current:     "flat-pricey",
		Candidates:  []AdviseCandidate{{Contract: specJSON(t, cheap)}, {Contract: specJSON(t, pricey)}},
		Load:        LoadSpec{Profile: "quickstart-month"},
		Materiality: 1000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advise: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Ranking []struct {
			Name   string  `json:"name"`
			Annual float64 `json:"annual"`
		} `json:"ranking"`
		Best              string `json:"best"`
		ShouldRenegotiate bool   `json:"should_renegotiate"`
		Advice            string `json:"advice"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Best != "flat-cheap" || !out.ShouldRenegotiate {
		t.Errorf("advice: %+v", out)
	}
	if len(out.Ranking) != 2 || out.Ranking[0].Annual >= out.Ranking[1].Annual {
		t.Errorf("ranking must be cheapest-first: %+v", out.Ranking)
	}
	if !strings.Contains(out.Advice, "renegotiate") {
		t.Errorf("advice text: %q", out.Advice)
	}

	// Both candidates' engines are now cached: a bill for the cheap
	// structure is a hit.
	resp, body = postBill(t, ts, "/v1/bill", BillRequest{
		Contract: specJSON(t, cheap), Load: LoadSpec{Profile: "quickstart-month"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bill after advise: %d %s", resp.StatusCode, body)
	}
	if st := s.cache.stats(); st.hits != 1 || st.compiles != 2 {
		t.Errorf("advise candidates must share the engine cache: %+v", st)
	}
}

func TestBadRequests(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		req  BillRequest
	}{
		{"missing contract", BillRequest{Load: LoadSpec{Profile: "quickstart-month"}}},
		{"no load source", BillRequest{Contract: specJSON(t, quickstartSpec())}},
		{"two load sources", BillRequest{Contract: specJSON(t, quickstartSpec()),
			Load: LoadSpec{Profile: "quickstart-month", CSV: "x"}}},
		{"unknown profile", BillRequest{Contract: specJSON(t, quickstartSpec()),
			Load: LoadSpec{Profile: "nope"}}},
		{"bad contract", BillRequest{Contract: json.RawMessage(`{"name":"x","tariffs":[{"type":"warp"}]}`),
			Load: LoadSpec{Profile: "quickstart-month"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postBill(t, ts, "/v1/bill", tc.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("want 400, got %d: %s", resp.StatusCode, body)
			}
			if !strings.Contains(string(body), "error") {
				t.Errorf("error body: %s", body)
			}
		})
	}

	// Wrong method on a registered path.
	resp, err := ts.Client().Get(ts.URL + "/v1/bill")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/bill = %d, want 405", resp.StatusCode)
	}
}

// TestInlineLoadSources bills the same series submitted as inline CSV
// and as inline JSON samples; both must produce identical bills.
func TestInlineLoadSources(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	load := namedLoad(t, "quickstart-month")
	var csv strings.Builder
	if err := timeseries.WritePowerCSV(&csv, load); err != nil {
		t.Fatal(err)
	}
	kw := make([]float64, load.Len())
	for i := range kw {
		kw[i] = float64(load.At(i))
	}

	spec := specJSON(t, quickstartSpec())
	_, fromCSV := postBill(t, ts, "/v1/bill", BillRequest{
		Contract: spec,
		Load:     LoadSpec{CSV: csv.String()},
	})
	_, fromSeries := postBill(t, ts, "/v1/bill", BillRequest{
		Contract: spec,
		Load: LoadSpec{Series: &SeriesSpec{
			Start:           load.Start(),
			IntervalSeconds: int(load.Interval() / time.Second),
			KW:              kw,
		}},
	})
	if !bytes.Equal(fromCSV, fromSeries) {
		t.Errorf("CSV and series submissions disagree:\n%s\nvs\n%s", fromCSV, fromSeries)
	}
	var bill struct {
		Total float64 `json:"total"`
	}
	if err := json.Unmarshal(fromCSV, &bill); err != nil {
		t.Fatalf("bad bill: %v\n%s", err, fromCSV)
	}
	if bill.Total <= 0 {
		t.Errorf("total %v", bill.Total)
	}
}

// TestSyntheticLoadBounded: generator parameters that would allocate an
// outsized series (or overflow the interval arithmetic) are refused
// before any sample is generated; the bounds themselves still bill.
func TestSyntheticLoadBounded(t *testing.T) {
	for _, tc := range []struct {
		name string
		sp   SyntheticSpec
		ok   bool
	}{
		{"too many days", SyntheticSpec{Days: maxSyntheticDays + 1}, false},
		{"too many samples", SyntheticSpec{Days: 1000, IntervalMinutes: 1}, false},
		{"interval overflows to zero", SyntheticSpec{IntervalMinutes: 1 << 53}, false},
		{"longest span", SyntheticSpec{Days: maxSyntheticDays}, true},
		{"most samples", SyntheticSpec{Days: maxSyntheticSamples / (24 * 60), IntervalMinutes: 1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			load, err := resolveSynthetic(tc.sp)
			if tc.ok && (err != nil || load.Len() > maxSyntheticSamples) {
				t.Fatalf("want a bounded series, got %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("accepted %+v (%d samples)", tc.sp, load.Len())
			}
		})
	}
}
