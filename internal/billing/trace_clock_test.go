package billing

// Regression test for the wall-clock reads scvet's nondeterm analyzer
// surfaced in the traced evaluation path: per-family span attribution
// used to call time.Now/time.Since directly. The clock is now injected
// (Evaluator.WithNow), so the span accounting itself is testable
// deterministically — and provably reads the clock exactly twice per
// family per block, never inside the per-sample loop.

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestTracedSpanClockInjection pins the traced scan's clock discipline
// with a tick-counting fake clock: 2 reads per family per chunk, each
// family span summing to exactly one fake tick per chunk, and a Result
// identical to the untraced path.
func TestTracedSpanClockInjection(t *testing.T) {
	n := 2*traceBlock + 9 // March and part of April, hourly
	load := series(traceLoad(n)...)
	// The scan chunks each month block.
	chunks := 0
	for _, blk := range load.Blocks() {
		chunks += (len(blk.Samples) + traceBlock - 1) / traceBlock
	}

	cases := []struct {
		name   string
		chunks int
		mk     func() []LineItemProducer
	}{
		{"columnar", chunks, func() []LineItemProducer {
			return []LineItemProducer{&probe{family: "tariff"}, &probe{family: "demand"}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() *Evaluator {
				ev, err := NewEvaluator(tc.mk()...)
				if err != nil {
					t.Fatal(err)
				}
				return ev
			}

			ticks := 0
			base := time.Date(2016, time.March, 1, 0, 0, 0, 0, time.UTC)
			ev := mk().WithNow(func() time.Time {
				ticks++
				return base.Add(time.Duration(ticks) * time.Second)
			})

			reg := obs.NewRegistry()
			ctx := obs.WithSpans(context.Background(), reg)
			traced, err := ev.EvaluatePeriodCtx(ctx, load, PeriodContext{})
			if err != nil {
				t.Fatal(err)
			}

			const families = 2
			if want := 2 * families * tc.chunks; ticks != want {
				t.Errorf("clock reads = %d, want %d (2 per family per chunk; a read inside the sample loop would explode this)", ticks, want)
			}

			// Each family's span: one Observe per period, summing one 1 s
			// tick per chunk.
			for _, name := range []string{"billing.tariff", "billing.demand"} {
				found := false
				for _, s := range reg.Snapshot() {
					if s.Name != name {
						continue
					}
					found = true
					if s.Count != 1 {
						t.Errorf("%s: observations = %d, want 1", name, s.Count)
					}
					if s.Sum != float64(tc.chunks) {
						t.Errorf("%s: span sum = %v s, want %v (one tick per chunk)", name, s.Sum, tc.chunks)
					}
				}
				if !found {
					t.Errorf("missing span %q", name)
				}
			}

			// The injected clock is instrumentation only: the bill must
			// be bit-identical to the untraced path, which reads no clock.
			ticks = 0
			plain, err := mk().WithNow(ev.now).EvaluatePeriod(load, PeriodContext{})
			if err != nil {
				t.Fatal(err)
			}
			if ticks != 0 {
				t.Errorf("untraced evaluation read the clock %d times", ticks)
			}
			if !reflect.DeepEqual(plain, traced) {
				t.Errorf("fake-clock traced result differs from untraced:\n%+v\nvs\n%+v", traced, plain)
			}
		})
	}
}
