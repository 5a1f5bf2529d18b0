package route

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// fleetTransport answers forwards in process: host "live" serves every
// path with 200, any other host fails at the transport, like a dead
// backend.
type fleetTransport struct{}

func (fleetTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Host != "live" {
		return nil, errors.New("connection refused")
	}
	rec := httptest.NewRecorder()
	rec.WriteString(`{"ok":true}`)
	return rec.Result(), nil
}

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
// every labelled family with at least one series (the dead backend is
// ejected on its first failure), then compares the /metrics page,
// values masked, line for line with testdata/metrics.golden. Values are
// pinned by the per-series tests. Regenerate with
// UPDATE_METRICS_GOLDEN=1 go test ./internal/route -run
// MetricsExposition.
func TestMetricsExposition(t *testing.T) {
	rt, err := NewRouter(Config{
		Backends:         []string{"http://live", "http://dead"},
		Client:           &http.Client{Transport: fleetTransport{}},
		FailureThreshold: 1,
		DisableHedge:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		method, path, body string
		header             string
		want               int
	}{
		// Unkeyed requests round-robin: the second starts at the dead
		// backend, ejects it and fails over.
		{"GET", "/v1/survey/roster", "", "", http.StatusOK},
		{"GET", "/v1/survey/records", "", "", http.StatusOK},
		{"POST", "/v1/bill", string(specBody(t, "golden")), "", http.StatusOK},
		{"POST", "/v1/bill", "{}", "0", http.StatusGatewayTimeout},
	} {
		req := httptest.NewRequest(step.method, step.path, strings.NewReader(step.body))
		if step.header != "" {
			req.Header.Set(DeadlineHeader, step.header)
		}
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, req)
		if rec.Code != step.want {
			t.Fatalf("%s %s: %d, want %d: %s", step.method, step.path, rec.Code, step.want, rec.Body)
		}
	}

	page := httptest.NewRecorder()
	rt.Handler().ServeHTTP(page, httptest.NewRequest("GET", "/metrics", nil))
	got := maskValues(page.Body.String())
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

// TestRequestPathLabelBounded: the router proxies every path, but only
// scserved's routes get their own path label; any number of distinct
// unknown paths shares one "other" series.
func TestRequestPathLabelBounded(t *testing.T) {
	rt, err := NewRouter(Config{Backends: []string{"http://live"}, Client: &http.Client{Transport: fleetTransport{}}})
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) {
		rt.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", path, nil))
	}
	for i := range 50 {
		get(fmt.Sprintf("/junk/%d", i))
	}
	get("/v1/survey/typology")
	get("/v1/bill/batch")

	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var series []string
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "scroute_requests_total{") {
			series = append(series, line)
		}
	}
	want := []string{
		`scroute_requests_total{path="/v1/bill/batch",code="200"} 1`,
		`scroute_requests_total{path="/v1/survey/typology",code="200"} 1`,
		`scroute_requests_total{path="other",code="200"} 50`,
	}
	if strings.Join(series, "\n") != strings.Join(want, "\n") {
		t.Errorf("request series:\n%s\nwant:\n%s", strings.Join(series, "\n"), strings.Join(want, "\n"))
	}
}
