package billing

// Span-tracing tests: evaluation with an obs.Registry attached to the
// context must produce a bit-identical Result to the untraced path
// while attributing scan cost per component family.

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/timeseries"
	"repro/internal/units"
)

func traceLoad(n int) []float64 {
	kw := make([]float64, n)
	for i := range kw {
		kw[i] = 1000 + float64(i%700)
	}
	return kw
}

// TestTracedEvaluationMatchesUntraced: attaching a span registry must
// not change the arithmetic — same energy, peak, lines, total.
func TestTracedEvaluationMatchesUntraced(t *testing.T) {
	// Enough samples to cross several trace blocks.
	load := series(traceLoad(3 * traceBlock)...)
	mk := func() *Evaluator {
		ev, err := NewEvaluator(
			&probe{family: "tariff"},
			&probe{family: "demand"},
			FlatFee{Name: "metering", Amount: units.MoneyFromFloat(500)},
			&probe{family: "other"},
		)
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}

	plain, err := mk().EvaluatePeriod(load, PeriodContext{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctx := obs.WithSpans(context.Background(), reg)
	traced, err := mk().EvaluatePeriodCtx(ctx, load, PeriodContext{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("traced result differs from untraced:\n%+v\nvs\n%+v", plain, traced)
	}

	names := map[string]bool{}
	for _, s := range reg.Snapshot() {
		names[s.Name] = true
		if s.Count == 0 {
			t.Errorf("span %s recorded no observations", s.Name)
		}
	}
	for _, want := range []string{
		SpanPeriod, "billing.tariff", "billing.demand", "billing.fee", "billing.other",
	} {
		if !names[want] {
			t.Errorf("missing span %q in %v", want, names)
		}
	}
}

// TestTracedObservationOrder: the chunked traced scan must still hand
// every scanner every sample exactly once, in order.
func TestTracedObservationOrder(t *testing.T) {
	n := traceBlock + 7 // a full block plus a partial tail
	load := series(traceLoad(n)...)
	p := &probe{family: "tariff"}
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := obs.WithSpans(context.Background(), obs.NewRegistry())
	if _, err := ev.EvaluatePeriodCtx(ctx, load, PeriodContext{}); err != nil {
		t.Fatal(err)
	}
	rec := p.last.Load()
	if len(rec.indexes) != n {
		t.Fatalf("scanner saw %d samples, want %d", len(rec.indexes), n)
	}
	for i, idx := range rec.indexes {
		if idx != i {
			t.Fatalf("sample %d has index %d: traced scan broke chronological order", i, idx)
		}
	}
}

// TestTracedMonths: the month pool records the months/prescan spans and
// each month's period span, and cancellation still works under tracing.
func TestTracedMonths(t *testing.T) {
	// Two months of hourly samples.
	start := time.Date(2016, time.March, 1, 0, 0, 0, 0, time.UTC)
	hours := int(start.AddDate(0, 2, 0).Sub(start) / time.Hour)
	samples := make([]units.Power, hours)
	for i, v := range traceLoad(hours) {
		samples[i] = units.Power(v)
	}
	load := timeseries.MustNewPower(start, time.Hour, samples)

	ev, err := NewEvaluator(&probe{family: "demand"})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctx := obs.WithSpans(context.Background(), reg)
	results, err := ev.EvaluateMonths(load, PeriodContext{}, MonthsOptions{Workers: 2, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("months = %d, want 2", len(results))
	}
	counts := map[string]uint64{}
	for _, s := range reg.Snapshot() {
		counts[s.Name] = s.Count
	}
	if counts[SpanMonths] != 1 || counts[SpanPrescan] != 1 {
		t.Errorf("months/prescan spans: %v", counts)
	}
	if counts[SpanPeriod] != 2 {
		t.Errorf("period spans = %d, want one per month", counts[SpanPeriod])
	}
}
