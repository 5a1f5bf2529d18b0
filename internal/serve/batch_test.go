package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/contract"
)

// batchEnvelope mirrors the /v1/bill/batch response. Body is a
// json.RawMessage so the decoded bytes are exactly the span the server
// embedded — the byte-identity checks compare it verbatim against a
// sequential /v1/bill response.
type batchEnvelope struct {
	Count int `json:"count"`
	Items []struct {
		Status   int             `json:"status"`
		Degraded bool            `json:"degraded"`
		Body     json.RawMessage `json:"body"`
	} `json:"items"`
}

func postBatch(t *testing.T, ts *httptest.Server, path string, req BatchRequest) (*http.Response, batchEnvelope, []byte) {
	t.Helper()
	resp, raw := postBill(t, ts, path, req)
	var env batchEnvelope
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("batch envelope does not parse: %v\n%s", err, raw)
		}
	}
	return resp, env, raw
}

// TestBatchMatchesSequential is the batch acceptance check: one load ×
// N contracts through /v1/bill/batch must return, per item, the exact
// bytes N sequential /v1/bill calls return.
func TestBatchMatchesSequential(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	input := &InputSpec{
		HistoricalPeakKW: 21000,
		Events: []EventSpec{{
			Start: time.Date(2016, time.March, 10, 12, 0, 0, 0, time.UTC), DurationMinutes: 120,
		}},
	}
	specs := []json.RawMessage{
		specJSON(t, quickstartSpec()),
		specJSON(t, kitchenSinkSpec()),
		specJSON(t, quickstartSpec()), // repeated spec: shares the parse and engine
	}
	load := LoadSpec{Profile: "peaky-month"}

	resp, env, raw := postBatch(t, ts, "/v1/bill/batch", BatchRequest{
		Contracts: specs, Load: &load, Input: input,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
	}
	if env.Count != len(specs) || len(env.Items) != len(specs) {
		t.Fatalf("count %d, %d items, want %d", env.Count, len(env.Items), len(specs))
	}
	for i, spec := range specs {
		seq, want := postBill(t, ts, "/v1/bill", BillRequest{Contract: spec, Load: load, Input: input})
		if seq.StatusCode != http.StatusOK {
			t.Fatalf("sequential item %d: %d %s", i, seq.StatusCode, want)
		}
		if env.Items[i].Status != http.StatusOK {
			t.Fatalf("item %d status %d: %s", i, env.Items[i].Status, env.Items[i].Body)
		}
		if !bytes.Equal(env.Items[i].Body, want) {
			t.Errorf("item %d body differs from sequential /v1/bill:\n%s\nvs\n%s", i, env.Items[i].Body, want)
		}
	}

	// The same spec appears twice: the batch must have compiled it once.
	if st := s.cache.stats(); st.compiles != 2 {
		t.Errorf("3 items over 2 distinct specs must compile twice, got %+v", st)
	}

	// Batch admission accounting is exposed on /metrics.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"scserved_batch_requests_total 1",
		"scserved_batch_items_total 3",
		`stage="batch_evaluate"`,
		`stage="batch_encode"`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestBatchMonthlyMatchesSequential: ?monthly=1 batch bodies must be
// the sequential /v1/bill?monthly=1 body minus its trailing newline.
func TestBatchMonthlyMatchesSequential(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := specJSON(t, quickstartSpec())
	loads := []LoadSpec{{Profile: "year-in-life"}, {Profile: "quickstart-month"}}

	resp, env, raw := postBatch(t, ts, "/v1/bill/batch?monthly=1", BatchRequest{
		Contract: spec, Loads: loads,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
	}
	for i, load := range loads {
		seq, want := postBill(t, ts, "/v1/bill?monthly=1", BillRequest{Contract: spec, Load: load})
		if seq.StatusCode != http.StatusOK {
			t.Fatalf("sequential item %d: %d %s", i, seq.StatusCode, want)
		}
		want = bytes.TrimSuffix(want, []byte("\n"))
		if env.Items[i].Status != http.StatusOK {
			t.Fatalf("item %d status %d: %s", i, env.Items[i].Status, env.Items[i].Body)
		}
		if !bytes.Equal(env.Items[i].Body, want) {
			t.Errorf("item %d monthly body differs from sequential:\n%s\nvs\n%s", i, env.Items[i].Body, want)
		}
	}
	// N loads × one contract: the spec parsed and compiled once.
	if st := s.cache.stats(); st.compiles != 1 {
		t.Errorf("one contract across 2 loads must compile once, got %+v", st)
	}
}

// TestBatchItemErrorIsolation: a broken spec fails its own item with a
// 400 marker while the rest of the batch bills normally.
func TestBatchItemErrorIsolation(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	specs := []json.RawMessage{
		specJSON(t, quickstartSpec()),
		json.RawMessage(`{"name":"x","tariffs":[{"type":"warp"}]}`),
	}
	load := LoadSpec{Profile: "quickstart-month"}
	resp, env, raw := postBatch(t, ts, "/v1/bill/batch", BatchRequest{Contracts: specs, Load: &load})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
	}
	if env.Items[0].Status != http.StatusOK {
		t.Errorf("good item: %d %s", env.Items[0].Status, env.Items[0].Body)
	}
	if env.Items[1].Status != http.StatusBadRequest {
		t.Errorf("bad item must carry 400, got %d: %s", env.Items[1].Status, env.Items[1].Body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(env.Items[1].Body, &e); err != nil || e.Error == "" {
		t.Errorf("bad item body: %s (%v)", env.Items[1].Body, err)
	}

	// The whole response is the reference envelope around each item's
	// sequential answer, error body included.
	items := make([]referenceItem, len(specs))
	for i, spec := range specs {
		seq, body := postBill(t, ts, "/v1/bill", BillRequest{Contract: spec, Load: load})
		items[i] = referenceItem{status: seq.StatusCode, body: bytes.TrimSuffix(body, []byte("\n"))}
	}
	if want := referenceEnvelope(items); !bytes.Equal(raw, want) {
		t.Errorf("batch response differs from the reference envelope:\n%s\nvs\n%s", raw, want)
	}
}

// TestBatchValidation pins the request-shape rules.
func TestBatchValidation(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := specJSON(t, quickstartSpec())
	load := LoadSpec{Profile: "quickstart-month"}
	tooMany := make([]json.RawMessage, maxBatchItems+1)
	for i := range tooMany {
		tooMany[i] = spec
	}
	cases := []struct {
		name string
		req  BatchRequest
	}{
		{"no contract", BatchRequest{Load: &load}},
		{"no load", BatchRequest{Contract: spec}},
		{"both contract forms", BatchRequest{Contract: spec, Contracts: []json.RawMessage{spec}, Load: &load}},
		{"both load forms", BatchRequest{Contract: spec, Load: &load, Loads: []LoadSpec{load}}},
		{"N x M", BatchRequest{Contracts: []json.RawMessage{spec, spec}, Loads: []LoadSpec{load, load}}},
		{"too many items", BatchRequest{Contracts: tooMany, Load: &load}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postBill(t, ts, "/v1/bill/batch", tc.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("want 400, got %d: %s", resp.StatusCode, body)
			}
		})
	}
}

// stageCount reads one stage histogram's _count from a /metrics scrape
// (0 when the stage never ran).
func stageCount(t *testing.T, metrics, stage string) int {
	t.Helper()
	prefix := fmt.Sprintf("scserved_stage_seconds_count{stage=%q} ", stage)
	for _, line := range strings.Split(metrics, "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			var n int
			if _, err := fmt.Sscan(rest, &n); err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	return 0
}

// checkItemsMatchSequential asserts every batch item is 200 and
// byte-identical to the sequential /v1/bill response for its load, and
// the whole response byte-identical to the reference envelope around
// those responses, marked where they answered on a degraded feed.
func checkItemsMatchSequential(t *testing.T, ts *httptest.Server, spec json.RawMessage, loads []LoadSpec, raw []byte, env batchEnvelope, monthly bool) {
	t.Helper()
	path := "/v1/bill"
	if monthly {
		path += "?monthly=1"
	}
	if env.Count != len(loads) || len(env.Items) != len(loads) {
		t.Fatalf("count %d, %d items, want %d", env.Count, len(env.Items), len(loads))
	}
	items := make([]referenceItem, len(loads))
	for i, load := range loads {
		seq, want := postBill(t, ts, path, BillRequest{Contract: spec, Load: load})
		if seq.StatusCode != http.StatusOK {
			t.Fatalf("sequential item %d: %d %s", i, seq.StatusCode, want)
		}
		want = bytes.TrimSuffix(want, []byte("\n"))
		items[i] = referenceItem{status: http.StatusOK, degraded: seq.Header.Get("X-SCBill-Feed") == "degraded", body: want}
		if env.Items[i].Status != http.StatusOK {
			t.Fatalf("item %d status %d: %s", i, env.Items[i].Status, env.Items[i].Body)
		}
		if !bytes.Equal(env.Items[i].Body, want) {
			t.Errorf("item %d (%+v) differs from sequential %s:\n%s\nvs\n%s", i, load, path, env.Items[i].Body, want)
		}
	}
	if want := referenceEnvelope(items); !bytes.Equal(raw, want) {
		t.Errorf("batch response differs from the reference envelope:\n%s\nvs\n%s", raw, want)
	}
}

// TestBatchRepeatedLoadsMatchSequential: 16 loads drawn from the three
// named profiles plus one repeated synthetic parameter set are billed
// once per distinct (spec, load) pair, and every item is still the
// exact body of its sequential /v1/bill call.
func TestBatchRepeatedLoadsMatchSequential(t *testing.T) {
	profiles := []string{"quickstart-month", "peaky-month", "year-in-life"}
	loads := make([]LoadSpec, 16)
	for i := range loads {
		if i%4 == 3 {
			// A fresh pointer per item: synthetic loads dedupe by value.
			loads[i] = LoadSpec{Synthetic: &SyntheticSpec{Days: 10, BaseMW: 9, PeakRatio: 1.7, Seed: 5}}
		} else {
			loads[i] = LoadSpec{Profile: profiles[i%3]}
		}
	}
	const distinct = 4
	spec := specJSON(t, kitchenSinkSpec())

	for _, tc := range []struct {
		query, engineStage string
		monthly            bool
	}{
		{"", "engine.bill", false},
		{"?monthly=1", "engine.bill_months", true},
	} {
		t.Run(tc.engineStage, func(t *testing.T) {
			s := NewServer(Config{})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			resp, env, raw := postBatch(t, ts, "/v1/bill/batch"+tc.query, BatchRequest{Contract: spec, Loads: loads})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
			}
			// Read the spans before the sequential calls add their own.
			metrics := scrapeMetrics(t, ts)
			for _, stage := range []string{tc.engineStage, stageBatchEncode} {
				if got := stageCount(t, metrics, stage); got != distinct {
					t.Errorf("%s spans = %d, want one per distinct pair (%d), not one per item (%d)",
						stage, got, distinct, len(loads))
				}
			}
			checkItemsMatchSequential(t, ts, spec, loads, raw, env, tc.monthly)
		})
	}
}

// TestBatchFeedStaysPerItem: feed resolution stays per item. Repeated
// loads against a degraded feed each carry the degraded marking of
// their sequential response, and distinct loads under one dynamic spec
// are never merged — not even two loads that share the flat-feed
// engine.
func TestBatchFeedStaysPerItem(t *testing.T) {
	spec := specJSON(t, dynamicSpec())

	t.Run("degraded", func(t *testing.T) {
		u := newPriceUpstream(t)
		u.down.Store(true)
		_, ts, _ := newFeedServer(t, u, time.Minute)
		loads := []LoadSpec{
			{Profile: "quickstart-month"}, {Profile: "quickstart-month"},
			{Profile: "peaky-month"}, {Profile: "quickstart-month"},
		}
		for _, monthly := range []bool{false, true} {
			path := "/v1/bill/batch"
			if monthly {
				path += "?monthly=1"
			}
			resp, env, raw := postBatch(t, ts, path, BatchRequest{Contract: spec, Loads: loads})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: batch status %d: %s", path, resp.StatusCode, raw)
			}
			if got := resp.Header.Get("X-SCBill-Feed"); got != "degraded" {
				t.Errorf("%s: X-SCBill-Feed = %q, want degraded", path, got)
			}
			for i, it := range env.Items {
				if !it.Degraded {
					t.Errorf("%s: item %d not marked degraded", path, i)
				}
			}
			checkItemsMatchSequential(t, ts, spec, loads, raw, env, monthly)
		}
	})

	t.Run("flat feed", func(t *testing.T) {
		s := NewServer(Config{})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		// quickstart-month and peaky-month share a span, year-in-life
		// does not; one spec at one flat rate is one engine for all.
		loads := []LoadSpec{
			{Profile: "quickstart-month"}, {Profile: "peaky-month"},
			{Profile: "year-in-life"}, {Profile: "quickstart-month"},
		}
		resp, env, raw := postBatch(t, ts, "/v1/bill/batch", BatchRequest{Contract: spec, Loads: loads})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
		}
		if st := s.cache.stats(); st.compiles != 1 {
			t.Errorf("one spec and one flat rate must compile one engine across load spans, got %+v", st)
		}
		if got := stageCount(t, scrapeMetrics(t, ts), "engine.bill"); got != 3 {
			t.Errorf("engine.bill spans = %d, want 3 (one per distinct load)", got)
		}
		if bytes.Equal(env.Items[0].Body, env.Items[1].Body) {
			t.Error("two different loads on one flat-feed engine were merged")
		}
		checkItemsMatchSequential(t, ts, spec, loads, raw, env, false)

		// A second rate is a second engine.
		resp, _, raw = postBatch(t, ts, "/v1/bill/batch", BatchRequest{
			Contract: spec, Loads: loads[:1], Feed: &FeedSpec{FlatRatePerKWh: 0.07},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
		}
		if st := s.cache.stats(); st.compiles != 2 {
			t.Errorf("two flat rates must compile two engines, got %+v", st)
		}
	})
}

// BenchmarkBatchVsSequential documents the batch amortization claim:
// one /v1/bill/batch request over N contracts vs N sequential /v1/bill
// calls against the same server. Compare ns/op between the two
// sub-benchmarks; both bill the identical work.
func BenchmarkBatchVsSequential(b *testing.B) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	specs := make([]json.RawMessage, n)
	for i := range specs {
		spec := quickstartSpec()
		spec.Name = fmt.Sprintf("site-%d", i)
		spec.Tariffs[0].Rate = 0.05 + 0.005*float64(i)
		data, err := contract.EncodeSpec(spec)
		if err != nil {
			b.Fatal(err)
		}
		specs[i] = data
	}
	load := LoadSpec{Profile: "quickstart-month"}

	post := func(path string, body any) int {
		data, _ := json.Marshal(body)
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, spec := range specs {
				if code := post("/v1/bill", BillRequest{Contract: spec, Load: load}); code != http.StatusOK {
					b.Fatalf("status %d", code)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if code := post("/v1/bill/batch", BatchRequest{Contracts: specs, Load: &load}); code != http.StatusOK {
				b.Fatalf("status %d", code)
			}
		}
	})
}
