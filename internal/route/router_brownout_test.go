package route

// Gray-failure tests for the brownout-proof forward engine: per-try
// timeouts, hedged requests, retry budgets, deadline propagation, and
// the hop-by-hop header hygiene a buffering proxy owes RFC 9110.

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestFailoverReplaysExactBody: the first-ranked backend consumes the
// request body and then fails; the failover retry must carry the exact
// same bytes even though the client's reader was consumed once.
func TestFailoverReplaysExactBody(t *testing.T) {
	body := specBody(t, "site-replay")
	var got atomic.Value
	sawFirst := make(chan struct{}, 4)

	fail := func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.ReadAll(r.Body) // consume, then die
		sawFirst <- struct{}{}
		w.WriteHeader(http.StatusBadGateway)
	}
	capture := func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		got.Store(string(b))
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, `{"ok":true}`)
	}

	stubs := []*stubBackend{newStubBackend(t), newStubBackend(t)}
	rt, front := newTestRouter(t, Config{FailureThreshold: 5}, stubs...)

	// Script whichever backend ranks first for this spec to fail and
	// the other to capture the replayed body.
	key, ok := routingKey(body)
	if !ok {
		t.Fatal("spec body must produce a routing key")
	}
	owner := Rank(rt.names, key)[0]
	for _, sb := range stubs {
		if sb.ts.URL == owner {
			sb.setHandler(fail)
		} else {
			sb.setHandler(capture)
		}
	}

	resp, out := postJSON(t, front.URL+"/v1/bill", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover = %d %s, want 200 from the spare", resp.StatusCode, out)
	}
	select {
	case <-sawFirst:
	default:
		t.Fatal("the ranked owner never saw the request")
	}
	if got.Load() != string(body) {
		t.Fatalf("retry body = %q, want the exact buffered original %q", got.Load(), body)
	}
}

// TestHedgeLoserCanceledPromptly: the first-ranked backend hangs past
// the hedge delay, the hedge wins, and the loser's request context is
// canceled promptly — not left to dangle until the request deadline.
func TestHedgeLoserCanceledPromptly(t *testing.T) {
	body := specBody(t, "site-hedge")
	loserCanceled := make(chan time.Duration, 1)

	hang := func(w http.ResponseWriter, r *http.Request) {
		// Consume the body: the server only watches for client
		// disconnect (which cancels r.Context()) once the body hits EOF.
		_, _ = io.ReadAll(r.Body)
		start := time.Now()
		<-r.Context().Done()
		loserCanceled <- time.Since(start)
	}
	fast := func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, `{"ok":true}`)
	}

	stubs := []*stubBackend{newStubBackend(t), newStubBackend(t)}
	rt, front := newTestRouter(t, Config{
		FailureThreshold: 50,
		RequestTimeout:   10 * time.Second,
		HedgeDelayFloor:  20 * time.Millisecond,
	}, stubs...)

	key, _ := routingKey(body)
	owner := Rank(rt.names, key)[0]
	for _, sb := range stubs {
		if sb.ts.URL == owner {
			sb.setHandler(hang)
		} else {
			sb.setHandler(fast)
		}
	}

	start := time.Now()
	resp, out := postJSON(t, front.URL+"/v1/bill", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged request = %d %s, want the hedge's 200", resp.StatusCode, out)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hedge took %s; must not wait out the hung owner", elapsed)
	}
	select {
	case d := <-loserCanceled:
		if d > 2*time.Second {
			t.Fatalf("loser context canceled after %s, want promptly after the win", d)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("loser context never canceled")
	}
	if rt.metrics.hedges.Value() == 0 || rt.metrics.hedgeWins.Value() == 0 {
		t.Errorf("hedges=%d hedgeWins=%d, want both > 0",
			rt.metrics.hedges.Value(), rt.metrics.hedgeWins.Value())
	}
}

// TestDeadlineShortCircuits: table-driven — a spent propagated deadline
// answers 504 without touching any backend; a generous one forwards and
// restamps a tightened budget downstream, and one above the configured
// 30 s request timeout, even one too large for a time.Duration once
// scaled, forwards within the configured budget.
func TestDeadlineShortCircuits(t *testing.T) {
	cases := []struct {
		name       string
		deadlineMS string
		wantCode   int
		wantHits   int64
		wantOrigin string
		maxRestamp int // > 0: the forward's budget must be in (0, maxRestamp]
	}{
		{"spent", "0", http.StatusGatewayTimeout, 0, OriginRouter, 0},
		{"negative", "-40", http.StatusGatewayTimeout, 0, OriginRouter, 0},
		{"generous", "5000", http.StatusOK, 1, "", 5000},
		{"above-configured", "60000", http.StatusOK, 1, "", 30000},
		{"overflowing", "9300000000000", http.StatusOK, 1, "", 30000},
		{"max-int64", "9223372036854775807", http.StatusOK, 1, "", 30000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stamped atomic.Value
			sb := newStubBackend(t)
			sb.setHandler(func(w http.ResponseWriter, r *http.Request) {
				stamped.Store(r.Header.Get(DeadlineHeader))
				w.WriteHeader(http.StatusOK)
				fmt.Fprintln(w, `{"ok":true}`)
			})
			_, front := newTestRouter(t, Config{}, sb)

			req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/bill",
				strings.NewReader(string(specBody(t, "site-deadline"))))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set(DeadlineHeader, tc.deadlineMS)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			out, _ := io.ReadAll(resp.Body)
			resp.Body.Close()

			if resp.StatusCode != tc.wantCode {
				t.Fatalf("deadline %s ms = %d %s, want %d", tc.deadlineMS, resp.StatusCode, out, tc.wantCode)
			}
			if got := sb.hits.Load(); got != tc.wantHits {
				t.Errorf("backend hits = %d, want %d (spent deadlines must not touch a backend)", got, tc.wantHits)
			}
			if got := resp.Header.Get(OriginHeader); got != tc.wantOrigin {
				t.Errorf("origin header = %q, want %q", got, tc.wantOrigin)
			}
			if tc.maxRestamp > 0 {
				v, _ := stamped.Load().(string)
				if v == "" {
					t.Fatal("forward missing the restamped deadline header")
				}
				var ms int
				fmt.Sscanf(v, "%d", &ms)
				if ms <= 0 || ms > tc.maxRestamp {
					t.Errorf("restamped budget = %s ms, want in (0, %d]", v, tc.maxRestamp)
				}
			}
		})
	}
}

// TestPerTryTimeoutEjectsHungBackend: a backend that accepts the
// connection and never answers trips the per-try timeout, counts as a
// breaker failure, and the request fails over — the gray failure the
// crash path alone cannot see.
func TestPerTryTimeoutEjectsHungBackend(t *testing.T) {
	body := specBody(t, "site-hung")
	hang := func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.ReadAll(r.Body) // EOF arms the server's disconnect watch
		<-r.Context().Done()
	}
	fast := func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, `{"ok":true}`)
	}

	stubs := []*stubBackend{newStubBackend(t), newStubBackend(t)}
	rt, front := newTestRouter(t, Config{
		FailureThreshold: 2,
		OpenTimeout:      time.Hour,
		RequestTimeout:   5 * time.Second,
		TryTimeoutFloor:  30 * time.Millisecond,
		TryTimeoutCeil:   60 * time.Millisecond,
		DisableHedge:     true, // isolate the per-try path from hedging
	}, stubs...)

	key, _ := routingKey(body)
	owner := Rank(rt.names, key)[0]
	for _, sb := range stubs {
		if sb.ts.URL == owner {
			sb.setHandler(hang)
		} else {
			sb.setHandler(fast)
		}
	}

	for i := 0; i < 4; i++ {
		resp, out := postJSON(t, front.URL+"/v1/bill", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d through hung owner = %d %s, want failover 200", i, resp.StatusCode, out)
		}
	}
	if rt.metrics.tryTimeouts.Value() == 0 {
		t.Error("hung backend produced no per-try timeouts")
	}
	waitUntil(t, "the hung owner's breaker to open", func() bool {
		return rt.byName[owner].breaker.State().String() == "open"
	})
}

// TestBudgetGatesHedgesAndRetries: with a zero-burst-equivalent budget
// (tiny burst, tiny ratio) a storm of failing requests is not
// multiplied — the budget-exhausted counter rises and attempted stays
// close to offered.
func TestBudgetGatesHedgesAndRetries(t *testing.T) {
	sb := newStubBackend(t)
	sb.setHandler(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
	})
	spare := newStubBackend(t)
	spare.setHandler(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
	})
	rt, front := newTestRouter(t, Config{
		FailureThreshold: 1000,
		BudgetRatio:      0.1,
		BudgetBurst:      2,
		DisableHedge:     true,
	}, sb, spare)

	const offered = 40
	for i := 0; i < offered; i++ {
		resp, _ := postJSON(t, front.URL+"/v1/bill", specBody(t, "site-storm"))
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("storm request = %d, want relayed 502", resp.StatusCode)
		}
	}
	if rt.metrics.budgetExhausted.Value() == 0 {
		t.Error("storm never exhausted the retry budget")
	}
	attempted := sb.hits.Load() + spare.hits.Load()
	if maxAttempted := int64(offered + offered/10 + 2); attempted > maxAttempted {
		t.Errorf("attempted %d over %d offered exceeds the budget bound %d", attempted, offered, maxAttempted)
	}
	st := rt.budget.Stats()
	if st.Granted > uint64(offered/10+2) {
		t.Errorf("budget granted %d retries, bound is %d", st.Granted, offered/10+2)
	}
}

// TestCopyHeaderStripsHopByHop: table-driven — the RFC 9110 §7.6.1
// connection-level fields and any Connection-nominated header are
// consumed, end-to-end fields pass through.
func TestCopyHeaderStripsHopByHop(t *testing.T) {
	cases := []struct {
		name string
		key  string
		val  string
		want bool // survives the copy
	}{
		{"end-to-end content type", "Content-Type", "application/json", true},
		{"end-to-end custom", "X-Request-Id", "abc123", true},
		{"connection", "Connection", "keep-alive", false},
		{"keep-alive", "Keep-Alive", "timeout=5", false},
		{"transfer-encoding", "Transfer-Encoding", "chunked", false},
		{"te", "Te", "trailers", false},
		{"trailer", "Trailer", "Expires", false},
		{"upgrade", "Upgrade", "h2c", false},
		{"proxy-connection", "Proxy-Connection", "keep-alive", false},
		{"proxy-authorization", "Proxy-Authorization", "Basic Zm9v", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := http.Header{}
			src.Set(tc.key, tc.val)
			dst := http.Header{}
			copyHeader(dst, src)
			if got := dst.Get(tc.key) != ""; got != tc.want {
				t.Errorf("header %s survived=%v, want %v", tc.key, got, tc.want)
			}
		})
	}

	// Connection-nominated extension header is hop-by-hop by declaration.
	src := http.Header{}
	src.Set("Connection", "close, X-Internal-Token")
	src.Set("X-Internal-Token", "secret")
	src.Set("X-Request-Id", "keep-me")
	dst := http.Header{}
	copyHeader(dst, src)
	if dst.Get("X-Internal-Token") != "" {
		t.Error("Connection-nominated header must be stripped")
	}
	if dst.Get("X-Request-Id") != "keep-me" {
		t.Error("unrelated end-to-end header must survive")
	}
}

// TestProxyStripsHopByHopEndToEnd: a live round trip — the backend's
// hop-by-hop response headers never reach the client, and the client's
// never reach the backend.
func TestProxyStripsHopByHopEndToEnd(t *testing.T) {
	var sawKeepAlive atomic.Bool
	sb := newStubBackend(t)
	sb.setHandler(func(w http.ResponseWriter, r *http.Request) {
		sawKeepAlive.Store(r.Header.Get("Keep-Alive") != "")
		w.Header().Set("Keep-Alive", "timeout=60")
		w.Header().Set("X-Backend", "stub")
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, `{"ok":true}`)
	})
	_, front := newTestRouter(t, Config{}, sb)

	req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/bill",
		strings.NewReader(string(specBody(t, "site-hop"))))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Keep-Alive", "timeout=5")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if sawKeepAlive.Load() {
		t.Error("client's Keep-Alive forwarded upstream")
	}
	if resp.Header.Get("Keep-Alive") != "" {
		t.Error("backend's Keep-Alive relayed to the client")
	}
	if resp.Header.Get("X-Backend") != "stub" {
		t.Error("end-to-end response header lost in relay")
	}
}

// TestOriginHeaderTaxonomy: router-originated errors carry
// X-SCRoute-Origin: router; relayed upstream failures carry upstream.
func TestOriginHeaderTaxonomy(t *testing.T) {
	t.Run("router origin on dead fleet", func(t *testing.T) {
		sb := newStubBackend(t)
		_, front := newTestRouter(t, Config{FailureThreshold: 1, OpenTimeout: time.Hour}, sb)
		sb.ts.CloseClientConnections()
		sb.ts.Close()
		resp, _ := postJSON(t, front.URL+"/v1/bill", specBody(t, "site-origin"))
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("dead fleet = %d, want 502", resp.StatusCode)
		}
		if got := resp.Header.Get(OriginHeader); got != OriginRouter {
			t.Errorf("origin = %q, want %q", got, OriginRouter)
		}
	})
	t.Run("upstream origin on relayed 503", func(t *testing.T) {
		sb := newStubBackend(t)
		sb.setHandler(func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"draining"}`)
		})
		_, front := newTestRouter(t, Config{FailureThreshold: 10}, sb)
		resp, _ := postJSON(t, front.URL+"/v1/bill", specBody(t, "site-origin-up"))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("relay = %d, want 503", resp.StatusCode)
		}
		if got := resp.Header.Get(OriginHeader); got != OriginUpstream {
			t.Errorf("origin = %q, want %q", got, OriginUpstream)
		}
	})
}

// TestPollJitterSpread: the jittered poll interval stays within ±10%
// and actually varies, so fleet probes cannot stay phase-locked.
func TestPollJitterSpread(t *testing.T) {
	rng := newPollRNG("http://backend-a:9101")
	base := time.Second
	seen := map[time.Duration]bool{}
	for i := 0; i < 64; i++ {
		d := jitteredInterval(base, rng)
		if d < 900*time.Millisecond || d > 1100*time.Millisecond {
			t.Fatalf("jittered interval %s outside ±10%% of %s", d, base)
		}
		seen[d] = true
	}
	if len(seen) < 32 {
		t.Errorf("only %d distinct intervals in 64 draws; jitter looks constant", len(seen))
	}
}

// TestWaitDrainsLoserSettlement pins the goroleak fix in
// cancelAndDrain: the loser-settlement goroutine is registered on the
// router's WaitGroup, so Wait() holds shutdown open until every hedge
// loser's outcome has landed — and returns promptly once they have,
// because the losers' contexts were already canceled.
func TestWaitDrainsLoserSettlement(t *testing.T) {
	body := specBody(t, "site-wait")

	hang := func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.ReadAll(r.Body)
		<-r.Context().Done()
	}
	fast := func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, `{"ok":true}`)
	}

	stubs := []*stubBackend{newStubBackend(t), newStubBackend(t)}
	rt, front := newTestRouter(t, Config{
		FailureThreshold: 50,
		RequestTimeout:   10 * time.Second,
		HedgeDelayFloor:  20 * time.Millisecond,
	}, stubs...)

	key, _ := routingKey(body)
	owner := Rank(rt.names, key)[0]
	for _, sb := range stubs {
		if sb.ts.URL == owner {
			sb.setHandler(hang)
		} else {
			sb.setHandler(fast)
		}
	}

	resp, out := postJSON(t, front.URL+"/v1/bill", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged request = %d %s, want the hedge's 200", resp.StatusCode, out)
	}
	if rt.metrics.hedges.Value() == 0 {
		t.Fatal("no hedge fired; the settle goroutine was never exercised")
	}

	done := make(chan struct{})
	go func() {
		rt.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Wait did not return; loser settlement never drained")
	}
}
