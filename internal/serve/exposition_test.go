package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/feed"
)

// maskValues replaces each sample's value with "V", keeping comment
// lines whole: what is left is the page's shape — family order, HELP
// and TYPE text, series names and label sets.
func maskValues(page string) string {
	lines := strings.Split(strings.TrimSuffix(page, "\n"), "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "#") {
			if j := strings.LastIndexByte(line, ' '); j >= 0 {
				lines[i] = line[:j] + " V"
			}
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

// TestMetricsExposition replays a fixed request sequence that leaves
// every labelled family with at least one series, then compares the
// /metrics page, values masked, line for line with
// testdata/metrics.golden. Values are pinned by the per-series tests.
// Regenerate with UPDATE_METRICS_GOLDEN=1 go test ./internal/serve -run
// MetricsExposition.
func TestMetricsExposition(t *testing.T) {
	cached := feed.NewCached(&feed.Flat{Rate: 0.05}, feed.CachedConfig{})
	t.Cleanup(cached.Close)
	s := NewServer(Config{PriceFeed: cached})
	do := func(method, path string, body any) *httptest.ResponseRecorder {
		t.Helper()
		var raw string
		switch b := body.(type) {
		case nil:
		case string:
			raw = b
		default:
			enc, err := json.Marshal(b)
			if err != nil {
				t.Fatal(err)
			}
			raw = string(enc)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(raw)))
		return rec
	}

	bill := BillRequest{Contract: specJSON(t, quickstartSpec()), Load: LoadSpec{Profile: "quickstart-month"}}
	for _, step := range []struct {
		method, path string
		body         any
		want         int
	}{
		{"POST", "/v1/bill", bill, http.StatusOK},
		{"POST", "/v1/bill?monthly=1", bill, http.StatusOK},
		{"POST", "/v1/bill", dynamicBillRequest(t), http.StatusOK},
		{"POST", "/v1/bill", "{", http.StatusBadRequest},
		{"POST", "/v1/bill/batch", BatchRequest{
			Contract: specJSON(t, quickstartSpec()),
			Loads:    []LoadSpec{{Profile: "quickstart-month"}, {Profile: "quickstart-month"}},
		}, http.StatusOK},
		{"POST", "/v1/optimize", optimizeRequest(t), http.StatusOK},
		{"GET", "/v1/survey/roster", nil, http.StatusOK},
		{"GET", "/healthz", nil, http.StatusOK},
		{"GET", "/metrics", nil, http.StatusOK},
	} {
		if rec := do(step.method, step.path, step.body); rec.Code != step.want {
			t.Fatalf("%s %s: %d, want %d: %s", step.method, step.path, rec.Code, step.want, rec.Body)
		}
	}

	got := maskValues(do("GET", "/metrics", nil).Body.String())
	const golden = "testdata/metrics.golden"
	if os.Getenv("UPDATE_METRICS_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("line %d of /metrics differs from %s:\n got: %q\nwant: %q", i+1, golden, g, w)
		}
	}
}
