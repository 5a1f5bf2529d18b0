package billing

// Edge cases of calendar-month evaluation: partial months, samples
// landing exactly on month boundaries, worker pools larger than the
// month count, and cooperative cancellation through MonthsOptions.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/timeseries"
	"repro/internal/units"
)

// TestEvaluateMonthsSinglePartialMonth bills a load spanning only part
// of one month: one result covering exactly the sampled span.
func TestEvaluateMonthsSinglePartialMonth(t *testing.T) {
	start := time.Date(2016, time.March, 10, 6, 0, 0, 0, time.UTC)
	load := timeseries.MustNewPower(start, time.Hour, []units.Power{1000, 3000, 2000})

	e, _ := NewEvaluator(&probe{name: "p"})
	res, err := e.EvaluateMonths(load, PeriodContext{}, MonthsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("partial month must yield one result, got %d", len(res))
	}
	r := res[0]
	if !r.PeriodStart.Equal(start) || !r.PeriodEnd.Equal(start.Add(3*time.Hour)) {
		t.Errorf("period %v–%v, want %v–%v", r.PeriodStart, r.PeriodEnd, start, start.Add(3*time.Hour))
	}
	if r.Peak != 3000 || float64(r.Energy) != 6000 {
		t.Errorf("peak %v energy %v", r.Peak, r.Energy)
	}
}

// TestEvaluateMonthsBoundaryOnSample puts a sample exactly at midnight
// of the first of the next month: the sample must open the new month,
// appear exactly once, and carry its energy into the new month's total.
func TestEvaluateMonthsBoundaryOnSample(t *testing.T) {
	// Last 2 hours of March and first 2 hours of April, hourly.
	start := time.Date(2016, time.March, 31, 22, 0, 0, 0, time.UTC)
	load := timeseries.MustNewPower(start, time.Hour, []units.Power{1000, 2000, 7000, 4000})

	e, _ := NewEvaluator(&probe{name: "p"})
	res, err := e.EvaluateMonths(load, PeriodContext{}, MonthsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("want 2 months, got %d", len(res))
	}
	march, april := res[0], res[1]
	boundary := time.Date(2016, time.April, 1, 0, 0, 0, 0, time.UTC)
	if !march.PeriodEnd.Equal(boundary) || !april.PeriodStart.Equal(boundary) {
		t.Errorf("boundary: march ends %v, april starts %v, want %v", march.PeriodEnd, april.PeriodStart, boundary)
	}
	// The midnight sample (7000) belongs to April, once.
	if march.Peak != 2000 || april.Peak != 7000 {
		t.Errorf("peaks %v / %v, want 2000 / 7000", march.Peak, april.Peak)
	}
	if float64(march.Energy) != 3000 || float64(april.Energy) != 11000 {
		t.Errorf("energy %v / %v, want 3000 / 11000", march.Energy, april.Energy)
	}
	// No sample lost or duplicated across the split.
	if got := float64(march.Energy + april.Energy); got != float64(load.Energy()) {
		t.Errorf("split loses energy: %v != %v", got, load.Energy())
	}
}

// TestEvaluateMonthsMoreWorkersThanMonths: a pool far larger than the
// month count must behave identically to a right-sized one.
func TestEvaluateMonthsMoreWorkersThanMonths(t *testing.T) {
	// Two months of hourly data.
	n := (31 + 30) * 24
	samples := make([]units.Power, n)
	for i := range samples {
		samples[i] = units.Power(1000 + i%7)
	}
	load := timeseries.MustNewPower(t0, time.Hour, samples)

	e, _ := NewEvaluator(&probe{name: "p"})
	want, err := e.EvaluateMonths(load, PeriodContext{}, MonthsOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.EvaluateMonths(load, PeriodContext{}, MonthsOptions{Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) != 2 {
		t.Fatalf("months: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Peak != want[i].Peak || got[i].Energy != want[i].Energy ||
			got[i].Total != want[i].Total ||
			!got[i].PeriodStart.Equal(want[i].PeriodStart) ||
			!got[i].PeriodEnd.Equal(want[i].PeriodEnd) {
			t.Errorf("month %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestEvaluateMonthsCancelled: a pre-cancelled context stops the worker
// pool and surfaces the cancellation error for every pool size.
func TestEvaluateMonthsCancelled(t *testing.T) {
	n := (31 + 30 + 31) * 24
	samples := make([]units.Power, n)
	for i := range samples {
		samples[i] = 1000
	}
	load := timeseries.MustNewPower(t0, time.Hour, samples)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, _ := NewEvaluator(&probe{name: "p"})
	for _, workers := range []int{1, 4} {
		_, err := e.EvaluateMonths(load, PeriodContext{}, MonthsOptions{Workers: workers, Context: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestEvaluatePeriodCtxDeadline: the single-pass loop itself honours an
// already-expired deadline.
func TestEvaluatePeriodCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	e, _ := NewEvaluator(&probe{name: "p"})
	if _, err := e.EvaluatePeriodCtx(ctx, series(1000, 2000), PeriodContext{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
}

// TestForEach pins the index pool EvaluateMonths and contract.BillBatch
// share: every index runs once and its error lands in its own slot, on
// one worker and on several; once the context is done no index starts,
// and each one left records ctx.Err().
func TestForEach(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		var ran [10]atomic.Int32
		errs := ForEach(context.Background(), len(ran), workers, func(i int) error {
			ran[i].Add(1)
			if i%3 == 0 {
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		for i := range ran {
			if n := ran[i].Load(); n != 1 {
				t.Errorf("workers %d: index %d ran %d times", workers, i, n)
			}
			if got := fmt.Sprint(errs[i]); (i%3 == 0) != (errs[i] != nil) || (errs[i] != nil && got != fmt.Sprintf("item %d", i)) {
				t.Errorf("workers %d: index %d error %v", workers, i, errs[i])
			}
		}
	}

	done, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 3} {
		errs := ForEach(done, 5, workers, func(i int) error {
			t.Errorf("workers %d: index %d ran after cancel", workers, i)
			return nil
		})
		for i, err := range errs {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("workers %d: index %d error %v, want context.Canceled", workers, i, err)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := ForEach(ctx, 5, 1, func(i int) error {
		if i == 2 {
			cancel()
		}
		return nil
	})
	for i, err := range errs {
		if want := i > 2; errors.Is(err, context.Canceled) != want || (!want && err != nil) {
			t.Errorf("cancelled at index 2: index %d error %v", i, err)
		}
	}
}
