package serve

// Deadline-propagation tests: a router-stamped X-SCBill-Deadline-Ms
// budget tightens the request context, a spent one refuses work before
// evaluation starts, and an unparseable one is ignored.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

func postBillWithDeadline(t *testing.T, ts *httptest.Server, deadlineMS string) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(BillRequest{
		Contract: specJSON(t, quickstartSpec()),
		Load:     LoadSpec{Profile: "quickstart-month"},
	})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/bill", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if deadlineMS != "" {
		req.Header.Set(wire.DeadlineHeader, deadlineMS)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestSpentDeadlineRefusedBeforeEvaluation: X-SCBill-Deadline-Ms <= 0
// answers 504 without starting evaluation or burning a slot.
func TestSpentDeadlineRefusedBeforeEvaluation(t *testing.T) {
	s := NewServer(Config{})
	var evaluated atomic.Bool
	s.billHook = func(context.Context) { evaluated.Store(true) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, ms := range []string{"0", "-150"} {
		resp, body := postBillWithDeadline(t, ts, ms)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("deadline %s ms = %d %s, want 504", ms, resp.StatusCode, body)
		}
	}
	if evaluated.Load() {
		t.Error("spent deadline must not start evaluation")
	}
	if got := s.metrics.deadlineExpired.Value(); got != 2 {
		t.Errorf("deadlineExpired = %d, want 2", got)
	}
}

// TestPropagatedDeadlineTightensTimeout: a small propagated budget
// overrides the generous configured RequestTimeout — the blocked
// evaluation 504s in milliseconds, not in 30 s.
func TestPropagatedDeadlineTightensTimeout(t *testing.T) {
	s := NewServer(Config{RequestTimeout: 30 * time.Second})
	s.billHook = func(ctx context.Context) { <-ctx.Done() }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	resp, body := postBillWithDeadline(t, ts, "60")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("tight budget = %d %s, want 504", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("504 took %s; the 60 ms propagated budget did not tighten the deadline", elapsed)
	}
	if got := s.metrics.deadlinePropagated.Value(); got != 1 {
		t.Errorf("deadlinePropagated = %d, want 1", got)
	}
}

// TestGenerousAndMalformedDeadlines: a generous budget serves normally,
// and garbage in the header is ignored rather than refused.
func TestGenerousAndMalformedDeadlines(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, ms := range []string{"30000", "not-a-number", ""} {
		resp, body := postBillWithDeadline(t, ts, ms)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("deadline %q = %d %s, want 200", ms, resp.StatusCode, body)
		}
	}
	if got := s.metrics.deadlinePropagated.Value(); got != 1 {
		t.Errorf("deadlinePropagated = %d, want 1 (only the parseable budget counts)", got)
	}
}
