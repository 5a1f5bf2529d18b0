package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestRunAgainstServe drives a real scserved instance and checks the
// report's books balance: every sent request is classified exactly
// once and the NDJSON stream has one line per sent request.
func TestRunAgainstServe(t *testing.T) {
	s := serve.NewServer(serve.Config{MaxConcurrent: 2, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var nd bytes.Buffer
	rep, err := Run(context.Background(), Config{
		Target:        ts.URL,
		RPS:           400,
		Duration:      300 * time.Millisecond,
		Seed:          7,
		Specs:         4,
		BatchFraction: 0.2,
		BatchItems:    4,
		NDJSON:        &nd,
	})
	if err != nil {
		t.Fatal(err)
	}

	sent, ok, shed, serverErr, clientErr, transport := rep.Totals()
	if sent == 0 || ok == 0 {
		t.Fatalf("no traffic admitted: sent=%d ok=%d", sent, ok)
	}
	if serverErr != 0 || transport != 0 || clientErr != 0 {
		t.Errorf("unexpected failures: 5xx=%d transport=%d 4xx=%d", serverErr, transport, clientErr)
	}
	if got := ok + shed + serverErr + clientErr + transport; got != sent {
		t.Errorf("outcome classes sum to %d, sent %d", got, sent)
	}

	lines := 0
	sc := bufio.NewScanner(&nd)
	for sc.Scan() {
		lines++
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line: %v", err)
		}
	}
	if uint64(lines) != sent {
		t.Errorf("NDJSON lines = %d, sent = %d", lines, sent)
	}

	var sum strings.Builder
	rep.WriteSummary(&sum)
	for _, want := range []string{"| endpoint |", "/v1/bill", "seed: 7"} {
		if !strings.Contains(sum.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, sum.String())
		}
	}
}

// TestSeededSequenceDeterministic: two runs with one seed issue the
// same (seq, endpoint, spec, profile) descriptors; a different seed
// issues a different sequence.
func TestSeededSequenceDeterministic(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer stub.Close()

	run := func(seed int64) []string {
		var nd bytes.Buffer
		_, err := Run(context.Background(), Config{
			Target:        stub.URL,
			RPS:           2000,
			Duration:      100 * time.Millisecond,
			Seed:          seed,
			Specs:         8,
			BatchFraction: 0.3,
			Profiles:      []string{"quickstart-month", "peaky-month"},
			NDJSON:        &nd,
		})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		sc := bufio.NewScanner(&nd)
		for sc.Scan() {
			var rec struct {
				Seq      int    `json:"seq"`
				Endpoint string `json:"endpoint"`
				Spec     int    `json:"spec"`
				Profile  string `json:"profile"`
			}
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatal(err)
			}
			b, _ := json.Marshal(rec)
			out = append(out, string(b))
		}
		sort.Strings(out)
		return out
	}

	a, b := run(42), run(42)
	if len(a) == 0 {
		t.Fatal("no requests recorded")
	}
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Error("same seed produced different descriptor sequences")
	}
	if c := run(43); strings.Join(a, "\n") == strings.Join(c, "\n") {
		t.Error("different seeds produced identical descriptor sequences")
	}
}

// TestSpecBodiesDistinct: every synthetic spec must hash to its own
// engine-cache key, or the working-set knob lies.
func TestSpecBodiesDistinct(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 64; i++ {
		raw, err := SpecBody(i)
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(raw)] {
			t.Fatalf("spec %d duplicates an earlier spec", i)
		}
		seen[string(raw)] = true
	}
}

// TestPacingHonorsSchedule pins the timerstop fix: the arrival loop
// runs off one hoisted, Reset pacing timer instead of a fresh
// time.After per iteration. A Reset/drain bug shows up here as either
// an instant burst (elapsed far below the schedule) or a stall.
func TestPacingHonorsSchedule(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	start := time.Now()
	rep, err := Run(context.Background(), Config{
		Target:   ts.URL,
		RPS:      20,
		Duration: 250 * time.Millisecond,
		Seed:     3,
		Specs:    2,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	sent, _, _, _, _, _ := rep.Totals()
	if sent != 5 {
		t.Fatalf("sent = %d arrivals, want the full 5-slot schedule", sent)
	}
	// Five arrivals at 50 ms spacing: the last is due at t=200 ms. An
	// instant burst (broken pacing) finishes in single-digit ms.
	if elapsed < 150*time.Millisecond {
		t.Fatalf("run finished in %s; arrivals were not paced", elapsed)
	}
}

// TestCancelMidRunReturnsPromptly: canceling the run context while the
// generator is parked on the pacing timer must return the partial
// report without blocking on the timer drain.
func TestCancelMidRunReturnsPromptly(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(120 * time.Millisecond)
		cancel()
	}()

	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := Run(ctx, Config{
			Target:   ts.URL,
			RPS:      2, // 500 ms spacing: cancellation lands mid-wait
			Duration: 30 * time.Second,
			Seed:     5,
			Specs:    2,
		})
		done <- err
	}()

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Run took %s to notice the cancel", elapsed)
	}
}

// TestBatchBodyBillsDistinctPairs: a batch body names batchItems
// distinct specs, consecutive in the cycle from the descriptor's own,
// against its one profile, so the backend's batch dedupe cannot fold
// it into a single bill; a cycle shorter than the batch wraps around.
func TestBatchBodyBillsDistinctPairs(t *testing.T) {
	specs := make([][]byte, 96)
	for i := range specs {
		raw, err := SpecBody(i)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = raw
	}
	for _, c := range []struct{ nspecs, spec, items, distinct int }{
		{96, 40, 64, 64},
		{96, 90, 64, 64},
		{8, 3, 16, 8},
	} {
		d := descriptor{endpoint: "/v1/bill/batch", spec: c.spec, profile: "year-in-life"}
		body, err := requestBody(d, specs[:c.nspecs], c.items)
		if err != nil {
			t.Fatal(err)
		}
		var req serve.BatchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		if len(req.Contract) != 0 || len(req.Loads) != 0 || req.Load == nil || req.Load.Profile != "year-in-life" {
			t.Fatalf("batch body is not N contracts x one load: %s", body)
		}
		if len(req.Contracts) != c.items {
			t.Fatalf("%d contracts, want %d", len(req.Contracts), c.items)
		}
		seen := make(map[string]bool)
		for i, raw := range req.Contracts {
			if want := specs[(c.spec+i)%c.nspecs]; !bytes.Equal(raw, want) {
				t.Fatalf("contract %d is not spec %d of the cycle", i, (c.spec+i)%c.nspecs)
			}
			seen[string(raw)] = true
		}
		if len(seen) != c.distinct {
			t.Errorf("%d distinct specs in a batch of %d from a cycle of %d, want %d", len(seen), c.items, c.nspecs, c.distinct)
		}
	}
}
