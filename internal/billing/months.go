package billing

// Calendar-month evaluation with a worker pool. Months are almost
// independent billing periods — the one cross-month dependency is the
// ratchet demand charge, whose billed demand floors at a fraction of
// the highest peak seen in earlier months. A naive parallelization
// would have to serialize on that. Instead evaluation is two-phase:
//
//  1. Peak prescan: one cheap pass over the series computes each
//     month's peak, from which the running historical peak entering
//     every month follows sequentially (it is a prefix maximum).
//  2. Parallel evaluation: with each month's historical peak known
//     up front, all months evaluate concurrently.
//
// The result is ordered and deterministic: identical to evaluating the
// months sequentially with the ratchet threaded through.

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/obs"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// MonthsOptions tunes EvaluateMonths.
type MonthsOptions struct {
	// Workers caps the worker pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Context, when non-nil, cancels the evaluation: workers stop
	// picking up months once it is done and the first cancellation
	// error is returned. Month evaluation itself also polls the
	// context (see EvaluatePeriodCtx), so even a single enormous
	// month honours a deadline.
	Context context.Context
}

// EvaluateMonths splits the load into calendar months and evaluates
// each month concurrently, threading the running historical peak into
// every month's context exactly as a sequential ratchet loop would.
// Results are in chronological month order.
func (e *Evaluator) EvaluateMonths(load *timeseries.PowerSeries, ctx PeriodContext, opts MonthsOptions) ([]*Result, error) {
	if load == nil || load.Len() == 0 {
		return nil, ErrEmptyLoad
	}
	cctx := opts.Context
	if cctx == nil {
		cctx = context.Background()
	}
	defer obs.Span(cctx, SpanMonths)()
	months := load.Months()

	// Phase 1: peak prescan over the columnar block view — tight slice
	// scans sharing the series' storage, no per-month copies. hist[i]
	// is the historical peak entering month i: the max of the caller's
	// historical peak and every earlier month's peak.
	endPrescan := obs.Span(cctx, SpanPrescan)
	blocks := load.Blocks()
	hist := make([]units.Power, len(blocks))
	for i := range blocks {
		hist[i] = blocks[i].Peak()
	}
	enteringPeaks(hist, hist, ctx.HistoricalPeak)
	endPrescan()

	// Phase 2: evaluate months on the pool, into one result slab.
	slab := make([]Result, len(months))
	results := make([]*Result, len(months))
	errs := ForEach(cctx, len(months), opts.Workers, func(i int) error {
		mctx := ctx
		mctx.HistoricalPeak = hist[i]
		results[i] = &slab[i]
		return e.evaluatePeriodInto(cctx, &months[i], mctx, &slab[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// ForEach calls fn(i) for every i in [0, n) on a pool of at most
// workers goroutines (<= 0 selects GOMAXPROCS; 1 runs the indexes in
// order on the caller's goroutine) and returns each call's error in
// index order. Once ctx is done, an index not yet started is not run:
// its error is ctx.Err().
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) []error {
	errs := make([]error, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers <= 1 {
		for i := range n {
			errs[i] = callIndex(ctx, fn, i)
		}
		return errs
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = callIndex(ctx, fn, i)
			}
		}()
	}
	for i := range n {
		next <- i
	}
	close(next)
	wg.Wait()
	return errs
}

// callIndex is fn(i), or ctx.Err() without the call once ctx is done.
func callIndex(ctx context.Context, fn func(i int) error, i int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return fn(i)
}

// enteringPeaks sets hist[i] to the historical peak entering month i —
// the prefix maximum of run and peaks[:i]. hist may alias peaks.
func enteringPeaks(hist, peaks []units.Power, run units.Power) {
	for i, p := range peaks {
		hist[i] = run
		if p > run {
			run = p
		}
	}
}
