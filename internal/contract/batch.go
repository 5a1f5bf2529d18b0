package contract

// Batch billing: N (engine, load) pairs evaluated as one unit of work.
// The fan-out is the billing engine's month pool (billing.ForEach):
// results in input order, errors isolated per item so one bad contract
// cannot poison the batch. The
// serve layer and scbill -batch both sit on top of this; each item's
// bill is exactly what Bill/BillMonths would have produced for that
// pair, so batching is a pure amortization (parse and compile once,
// evaluate N times), never an arithmetic change.

import (
	"context"
	"errors"

	"repro/internal/billing"
	"repro/internal/timeseries"
)

// BatchItem is one unit of a batch: a compiled engine and the load it
// bills. Engines and loads may repeat across items (one profile × N
// contracts, or N profiles × one contract).
type BatchItem struct {
	Engine *Engine
	Load   *timeseries.PowerSeries
}

// BatchOutcome is one item's result. Exactly one of Bill (single
// period), Months (monthly batch) or Err is meaningful.
type BatchOutcome struct {
	Bill   *Bill
	Months []*Bill
	Err    error
}

// BatchOptions tunes BillBatch.
type BatchOptions struct {
	// Monthly selects per-calendar-month bills instead of one bill per
	// item.
	Monthly bool
	// Workers caps the batch fan-out pool; <= 0 selects GOMAXPROCS.
	Workers int
	// MonthWorkers is the per-item month pool size used when Monthly is
	// set; <= 0 lets the engine pick. Batches that already fan out
	// across items usually want 1 here to avoid nested parallelism.
	MonthWorkers int
}

// BillBatch evaluates every item and returns the outcomes in item
// order. A cancelled context stops work: items not yet evaluated
// report the context's error. Item failures do not abort the batch.
func BillBatch(ctx context.Context, items []BatchItem, in BillingInput, opts BatchOptions) []BatchOutcome {
	out := make([]BatchOutcome, len(items))
	if ctx == nil {
		ctx = context.Background()
	}
	errs := billing.ForEach(ctx, len(items), opts.Workers, func(i int) error {
		it := items[i]
		if it.Engine == nil {
			return errors.New("contract: batch item has no engine")
		}
		var err error
		if opts.Monthly {
			out[i].Months, err = it.Engine.BillMonthsCtx(ctx, it.Load, in, opts.MonthWorkers)
		} else {
			out[i].Bill, err = it.Engine.BillCtx(ctx, it.Load, in)
		}
		return err
	})
	for i, err := range errs {
		out[i].Err = err
	}
	return out
}
