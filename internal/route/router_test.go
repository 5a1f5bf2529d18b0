package route

// Router tests against scripted stub backends: spec affinity, health
// ejection/readmission through the breaker, failover with zero client-
// visible 5xx while a spare backend lives, shed (429) relayed as
// backend success, and the router's own health endpoints.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/contract"
)

// stubBackend is a fake scserved: answers /readyz and counts proxied
// requests, with a swappable handler for fault scripts.
type stubBackend struct {
	ts    *httptest.Server
	hits  atomic.Int64
	ready atomic.Bool

	mu      sync.Mutex
	handler http.HandlerFunc
}

func newStubBackend(t *testing.T) *stubBackend {
	t.Helper()
	sb := &stubBackend{}
	sb.ready.Store(true)
	sb.handler = func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, `{"ok":true}`)
	}
	sb.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			if sb.ready.Load() {
				w.WriteHeader(http.StatusOK)
			} else {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			return
		}
		sb.hits.Add(1)
		sb.mu.Lock()
		h := sb.handler
		sb.mu.Unlock()
		h(w, r)
	}))
	t.Cleanup(sb.ts.Close)
	return sb
}

func (sb *stubBackend) setHandler(h http.HandlerFunc) {
	sb.mu.Lock()
	sb.handler = h
	sb.mu.Unlock()
}

func specBody(t *testing.T, name string) []byte {
	t.Helper()
	spec := &contract.Spec{
		Name:    name,
		Tariffs: []contract.TariffSpec{{Type: "fixed", Rate: 0.085}},
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]json.RawMessage{"contract": raw})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func newTestRouter(t *testing.T, cfg Config, stubs ...*stubBackend) (*Router, *httptest.Server) {
	t.Helper()
	for _, sb := range stubs {
		cfg.Backends = append(cfg.Backends, sb.ts.URL)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return rt, front
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, string(data)
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

// TestSpecAffinity: one spec always lands on one backend; distinct
// specs spread over the fleet.
func TestSpecAffinity(t *testing.T) {
	stubs := []*stubBackend{newStubBackend(t), newStubBackend(t), newStubBackend(t)}
	_, front := newTestRouter(t, Config{}, stubs...)

	body := specBody(t, "site-affinity")
	for i := 0; i < 9; i++ {
		if resp, out := postJSON(t, front.URL+"/v1/bill", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("bill %d: %d %s", i, resp.StatusCode, out)
		}
	}
	owners := 0
	for _, sb := range stubs {
		if n := sb.hits.Load(); n == 9 {
			owners++
		} else if n != 0 {
			t.Errorf("backend got %d of 9 requests; affinity must send all or none", n)
		}
	}
	if owners != 1 {
		t.Fatalf("one backend must own the spec, got %d owners", owners)
	}

	// Many distinct specs reach more than one backend.
	for i := 0; i < 30; i++ {
		postJSON(t, front.URL+"/v1/bill", specBody(t, fmt.Sprintf("site-%d", i)))
	}
	spread := 0
	for _, sb := range stubs {
		if sb.hits.Load() > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Errorf("30 distinct specs reached only %d backends", spread)
	}
}

// TestUnkeyedRoundRobin: bodies without a parseable spec rotate over
// the fleet instead of hammering one backend.
func TestUnkeyedRoundRobin(t *testing.T) {
	stubs := []*stubBackend{newStubBackend(t), newStubBackend(t), newStubBackend(t)}
	_, front := newTestRouter(t, Config{}, stubs...)

	for i := 0; i < 9; i++ {
		resp, err := http.Get(front.URL + "/v1/profiles")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	for _, sb := range stubs {
		if got := sb.hits.Load(); got != 3 {
			t.Errorf("round-robin uneven: backend saw %d of 9", got)
		}
	}
}

// TestFailoverHidesDeadBackend: with the spec's owner down, requests
// retry onto the next backend in rank order — the client sees 200s,
// never a 5xx, and the dead backend is ejected after FailureThreshold.
func TestFailoverHidesDeadBackend(t *testing.T) {
	stubs := []*stubBackend{newStubBackend(t), newStubBackend(t), newStubBackend(t)}
	rt, front := newTestRouter(t, Config{FailureThreshold: 2, OpenTimeout: time.Hour}, stubs...)

	// Find the owner of this spec and kill it.
	body := specBody(t, "site-failover")
	key, ok := routingKey(body)
	if !ok {
		t.Fatal("spec body must produce a routing key")
	}
	owner := Rank(rt.names, key)[0]
	for _, sb := range stubs {
		if sb.ts.URL == owner {
			sb.ts.CloseClientConnections()
			sb.ts.Close()
		}
	}

	for i := 0; i < 6; i++ {
		resp, out := postJSON(t, front.URL+"/v1/bill", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d through dead owner: %d %s", i, resp.StatusCode, out)
		}
	}
	if state := rt.byName[owner].breaker.State(); state.String() != "open" {
		t.Errorf("dead owner's breaker = %s, want open", state)
	}
	if rt.metrics.retries.Value() == 0 {
		t.Error("failover must count retries")
	}
	// Once ejected, forwards stop trying the dead backend entirely, so
	// later requests retry nothing.
	before := rt.metrics.retries.Value()
	postJSON(t, front.URL+"/v1/bill", body)
	if got := rt.metrics.retries.Value(); got != before {
		t.Errorf("ejected backend still being tried: retries %d -> %d", before, got)
	}
}

// TestShedRelaysAsSuccess: a backend 429 relays to the client intact
// (Retry-After included) and does NOT count against the breaker —
// shedding is the fleet working, not failing.
func TestShedRelaysAsSuccess(t *testing.T) {
	sb := newStubBackend(t)
	sb.setHandler(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintln(w, `{"error":"request queue is full, retry later"}`)
	})
	rt, front := newTestRouter(t, Config{FailureThreshold: 1}, sb)

	resp, _ := postJSON(t, front.URL+"/v1/bill", specBody(t, "site-shed"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed response = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After not relayed: %q", got)
	}
	if state := rt.byName[sb.ts.URL].breaker.State(); state.String() != "closed" {
		t.Errorf("429 tripped the breaker (state %s); shed must count as success", state)
	}
}

// TestDrainingBackendEjectedAndReadmitted: the health poller ejects a
// backend whose /readyz goes 503 and readmits it — via the breaker's
// half-open probe — when it recovers.
func TestDrainingBackendEjectedAndReadmitted(t *testing.T) {
	sb := newStubBackend(t)
	rt, _ := newTestRouter(t, Config{
		PollInterval:     5 * time.Millisecond,
		FailureThreshold: 2,
		OpenTimeout:      20 * time.Millisecond,
	}, sb)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt.Start(ctx)

	b := rt.byName[sb.ts.URL]
	waitUntil(t, "the first poll", func() bool { return b.ready.Load() })

	sb.ready.Store(false) // backend starts draining
	waitUntil(t, "the draining backend to be ejected", func() bool { return !b.eligible() })

	sb.ready.Store(true) // backend restarts
	waitUntil(t, "the recovered backend to be readmitted", func() bool { return b.eligible() })
}

// TestReadyzReflectsFleet: the router's own /readyz is 200 while any
// backend lives and 503 when the whole fleet is ejected; /metrics
// carries the scroute_ series.
func TestReadyzReflectsFleet(t *testing.T) {
	sb := newStubBackend(t)
	_, front := newTestRouter(t, Config{FailureThreshold: 1, OpenTimeout: time.Hour}, sb)

	resp, err := http.Get(front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with live fleet = %d", resp.StatusCode)
	}

	// Kill the only backend and trip its breaker with one forward.
	sb.ts.CloseClientConnections()
	sb.ts.Close()
	if resp, out := postJSON(t, front.URL+"/v1/bill", specBody(t, "site-dead")); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("dead fleet forward = %d %s, want 502", resp.StatusCode, out)
	}

	resp, err = http.Get(front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with dead fleet = %d %s", resp.StatusCode, body)
	}

	resp, err = http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"scroute_no_backend_total 1",
		`scroute_backend_healthy{backend=` + fmt.Sprintf("%q", sb.ts.URL) + `} 0`,
		"scroute_backend_ejections_total",
		`scroute_requests_total{path="/v1/bill",code="502"} 1`,
		`scroute_upstream_seconds_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestLastUpstream503Relays: when every backend answers 503 (whole
// fleet draining), the router relays the upstream 503 — truthful — and
// counts no retries as success.
func TestLastUpstream503Relays(t *testing.T) {
	stubs := []*stubBackend{newStubBackend(t), newStubBackend(t)}
	for _, sb := range stubs {
		sb.setHandler(func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"server is draining"}`)
		})
	}
	_, front := newTestRouter(t, Config{FailureThreshold: 5}, stubs...)

	resp, out := postJSON(t, front.URL+"/v1/bill", specBody(t, "site-drain"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("whole-fleet drain = %d %s, want relayed 503", resp.StatusCode, out)
	}
	if !strings.Contains(out, "draining") {
		t.Errorf("relayed body lost the upstream error: %s", out)
	}
}

// TestForwardKeepsEscapedPath: the forward carries the path exactly as
// the client escaped it, and the raw query. Re-escaping the decoded path
// cannot round-trip these: %2F decodes to a separator, and %25zz to a
// lone % that does not parse.
func TestForwardKeepsEscapedPath(t *testing.T) {
	var got atomic.Value
	sb := newStubBackend(t)
	sb.setHandler(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.RequestURI)
		w.WriteHeader(http.StatusOK)
	})
	_, front := newTestRouter(t, Config{}, sb)

	for _, uri := range []string{"/v1/x%25zz", "/v1/a%2Fb", "/v1/a%2Fb?q=1%2B2&r=%25"} {
		resp, err := http.Get(front.URL + uri)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d (origin %q), want the backend's 200", uri, resp.StatusCode, resp.Header.Get(OriginHeader))
		}
		if v, _ := got.Load().(string); v != uri {
			t.Errorf("GET %s reached the backend as %q", uri, v)
		}
	}
}

// TestNewRouterRejectsBadBackendURL: a backend URL that cannot carry a
// forward fails at construction, not on every request.
func TestNewRouterRejectsBadBackendURL(t *testing.T) {
	for _, name := range []string{"http://bad host", "127.0.0.1:9101", "ftp://10.0.0.1", "http://", "/v1"} {
		if _, err := NewRouter(Config{Backends: []string{name}}); err == nil {
			t.Errorf("NewRouter accepted backend %q", name)
		}
	}
	if _, err := NewRouter(Config{Backends: []string{"http://10.0.0.1:9101", "https://b.example"}}); err != nil {
		t.Errorf("NewRouter rejected good backends: %v", err)
	}
}
