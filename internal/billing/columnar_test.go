package billing

// Scan mechanics: chunking, cancellation polling, tracing and scanner
// reuse. Arithmetic equivalence against the legacy multi-pass path is
// pinned end to end by contract's golden and fuzz suites; these tests
// cover the evaluator-level contract of the scan itself.

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// twoMonthLoad returns hourly samples covering March and April 2016.
func twoMonthLoad() *timeseries.PowerSeries {
	hours := int(t0.AddDate(0, 2, 0).Sub(t0) / time.Hour)
	samples := make([]units.Power, hours)
	for i := range samples {
		samples[i] = units.Power(1000 + i%700)
	}
	return timeseries.MustNewPower(t0, time.Hour, samples)
}

// TestColumnarChunksPartitionPeriod: the columnar loop must hand every
// scanner every sample exactly once, in order, with chunks that never
// cross a month-block boundary — on both the untraced and traced paths.
func TestColumnarChunksPartitionPeriod(t *testing.T) {
	for _, traced := range []bool{false, true} {
		p := &probe{name: "probe", family: "tariff"}
		e, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		load := twoMonthLoad()
		ctx := context.Background()
		if traced {
			ctx = obs.WithSpans(ctx, obs.NewRegistry())
		}
		if _, err := e.EvaluatePeriodCtx(ctx, load, PeriodContext{}); err != nil {
			t.Fatal(err)
		}
		rec := p.last.Load()
		if len(rec.indexes) != load.Len() {
			t.Fatalf("traced=%v: scanner saw %d samples, want %d", traced, len(rec.indexes), load.Len())
		}
		for i, idx := range rec.indexes {
			if idx != i {
				t.Fatalf("traced=%v: sample %d arrived with index %d", traced, i, idx)
			}
		}
		blocks := load.Blocks()
		bi := 0
		for _, ch := range rec.chunks {
			base, n := ch[0], ch[1]
			for base >= blocks[bi].Offset+len(blocks[bi].Samples) {
				bi++
			}
			if base+n > blocks[bi].Offset+len(blocks[bi].Samples) {
				t.Fatalf("traced=%v: chunk [%d,%d) crosses month-block boundary at %d",
					traced, base, base+n, blocks[bi].Offset+len(blocks[bi].Samples))
			}
		}
	}
}

// TestColumnarCancelsMidScan: the columnar loop polls the context
// between chunks, so a cancellation raised during evaluation stops it.
func TestColumnarCancelsMidScan(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := &probe{name: "probe", family: "tariff", onScan: cancel}
	e, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.EvaluatePeriodCtx(ctx, twoMonthLoad(), PeriodContext{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := len(p.last.Load().chunks); n >= 2+1 {
		// Hourly months are under one cancel stride, so the first chunk
		// cancels and at most the in-flight poll gap leaks one more.
		t.Fatalf("scanner kept receiving chunks after cancellation: %d", n)
	}
}

// TestColumnarTracedMatchesUntracedAndRecordsSpans: attaching a span
// registry must not change the result, and family spans must appear.
func TestColumnarTracedMatchesUntracedAndRecordsSpans(t *testing.T) {
	load := twoMonthLoad()
	mk := func() *Evaluator {
		e, err := NewEvaluator(
			&probe{name: "a", family: "tariff"},
			&probe{name: "b", family: "demand"},
			FlatFee{Name: "metering", Amount: units.MoneyFromFloat(500)},
		)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	plain, err := mk().EvaluatePeriod(load, PeriodContext{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	traced, err := mk().EvaluatePeriodCtx(obs.WithSpans(context.Background(), reg), load, PeriodContext{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("traced columnar result differs:\n%+v\nvs\n%+v", plain, traced)
	}
	names := map[string]bool{}
	for _, s := range reg.Snapshot() {
		names[s.Name] = true
	}
	for _, want := range []string{SpanPeriod, "billing.tariff", "billing.demand", "billing.fee"} {
		if !names[want] {
			t.Errorf("missing span %q in %v", want, names)
		}
	}
}

// TestColumnarScannerReuse: pooled scanners must fully reset between
// periods — consecutive evaluations see identical results.
func TestColumnarScannerReuse(t *testing.T) {
	e, err := NewEvaluator(&probe{name: "probe", family: "tariff"})
	if err != nil {
		t.Fatal(err)
	}
	load := twoMonthLoad()
	first, err := e.EvaluatePeriod(load, PeriodContext{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.EvaluatePeriod(load, PeriodContext{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("pooled scanner leaked state between periods:\n%+v\nvs\n%+v", first, second)
	}
}

// TestAppendSpans holds the window-to-span builder to a per-sample
// reference: a sample lies in a span exactly when some window Covers
// its instant, the spans come out sorted and merged, and a non-empty
// dst keeps its elements. The windows overlap, touch, arrive out of
// order, lie before and past the period or straddle its edges, are
// narrower than one interval, or end centuries after the period
// starts, where time.Time.Sub saturates.
func TestAppendSpans(t *testing.T) {
	h := time.Hour
	for _, iv := range []time.Duration{15 * time.Minute, 7 * time.Minute, 90 * time.Minute} {
		n := int(3 * 24 * h / iv)
		end := t0.Add(time.Duration(n) * iv)
		windows := []Window{
			{t0.Add(4 * h), t0.Add(7 * h)},
			{t0.Add(2 * h), t0.Add(5 * h)},
			{t0.Add(10 * h), t0.Add(11 * h)},
			{t0.Add(11 * h), t0.Add(12*h + 1)},
			{t0.Add(-5 * h), t0.Add(-h)},
			{end.Add(-h), end.Add(2 * h)},
			{end.Add(h), end.Add(3 * h)},
			{t0.Add(30*h + time.Minute), t0.Add(30*h + 2*time.Minute)},
			{t0.Add(31 * h), t0.Add(31*h + 1)},
			{t0.Add(40 * h), t0.AddDate(300, 0, 0)},
			{t0.AddDate(-300, 0, 0), t0.Add(h)},
		}
		var want []Span
		for i := 0; i < n; i++ {
			at := t0.Add(time.Duration(i) * iv)
			covered := false
			for _, w := range windows {
				covered = covered || w.Covers(at)
			}
			switch {
			case !covered:
			case len(want) > 0 && want[len(want)-1].Hi == i:
				want[len(want)-1].Hi++
			default:
				want = append(want, Span{Lo: i, Hi: i + 1})
			}
		}
		kept := Span{Lo: -3, Hi: -1}
		got := AppendSpans([]Span{kept}, windows, t0, iv, n)
		if got[0] != kept || !reflect.DeepEqual(got[1:], want) {
			t.Errorf("interval %v: spans %v, want %v after %v", iv, got, want, kept)
		}
	}
}

// TestCeilIndex pins the duration-to-index ceiling conversion.
func TestCeilIndex(t *testing.T) {
	cases := []struct {
		d, interval time.Duration
		want        int
	}{
		{0, time.Hour, 0},
		{time.Nanosecond, time.Hour, 1},
		{time.Hour, time.Hour, 1},
		{time.Hour + time.Nanosecond, time.Hour, 2},
		{90 * time.Minute, time.Hour, 2},
		{15 * time.Minute, 15 * time.Minute, 1},
	}
	for _, c := range cases {
		if got := CeilIndex(c.d, c.interval); got != c.want {
			t.Errorf("CeilIndex(%v, %v) = %d, want %d", c.d, c.interval, got, c.want)
		}
	}
}
