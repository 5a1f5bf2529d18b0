package contract

// Engine compiles a contract into the single-pass billing engine
// (package billing). Compilation maps every contract component onto a
// billing.LineItemProducer — tariffs through the tariff package's
// adapter, demand charges, powerbands and emergency obligations
// directly (they implement the interface), fees as billing.FlatFee —
// validates the lot once and compiles each into a columnar kernel.
// Evaluation then scans each billing period's load series exactly
// once, regardless of how many components the contract has, and
// calendar months evaluate concurrently.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/billing"
	"repro/internal/obs"
	"repro/internal/tariff"
	"repro/internal/timeseries"
)

// Engine is a contract compiled for repeated billing. It is immutable
// after construction and safe for concurrent use — optimizers that bill
// the same contract in a tight loop should build one Engine and reuse
// it rather than calling ComputeBill per iteration.
type Engine struct {
	c        *Contract
	eval     *billing.Evaluator
	columnar bool
}

// NewEngine validates the contract and all its components and compiles
// the producer set.
func NewEngine(c *Contract) (*Engine, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	producers := make([]billing.LineItemProducer, 0,
		len(c.Tariffs)+len(c.DemandCharges)+len(c.Powerbands)+len(c.Emergencies)+len(c.Fees))
	columnar := true
	for _, t := range c.Tariffs {
		producers = append(producers, tariff.Producer(t))
		columnar = columnar && tariff.HasNativeKernel(t)
	}
	for _, dc := range c.DemandCharges {
		producers = append(producers, dc)
	}
	for _, pb := range c.Powerbands {
		producers = append(producers, pb)
	}
	for _, o := range c.Emergencies {
		producers = append(producers, o)
	}
	for _, fee := range c.Fees {
		producers = append(producers, billing.FlatFee{Name: fee.Name, Amount: fee.Amount})
	}
	eval, err := billing.NewEvaluator(producers...)
	if err != nil {
		return nil, fmt.Errorf("contract %q: %w", c.Name, err)
	}
	return &Engine{c: c, eval: eval, columnar: columnar}, nil
}

// Contract returns the compiled contract.
func (e *Engine) Contract() *Contract { return e.c }

// Columnar reports whether every tariff, stacked components included,
// compiled to a native kernel rather than the per-sample PriceAt
// scanner (false for a CPP tariff). Every contract bills on the one
// columnar scan either way; the fleet benchmark reads this bit to split
// its spec pools, and it goes when CPP gets a native kernel.
func (e *Engine) Columnar() bool { return e.columnar }

// Bill prices one billing period's load profile.
func (e *Engine) Bill(load *timeseries.PowerSeries, in BillingInput) (*Bill, error) {
	return e.BillCtx(context.Background(), load, in)
}

// BillCtx is Bill with cooperative cancellation: evaluation polls ctx
// and stops with ctx.Err() once it is done. Services use it to bound
// each request's evaluation by the request deadline.
func (e *Engine) BillCtx(ctx context.Context, load *timeseries.PowerSeries, in BillingInput) (*Bill, error) {
	defer obs.Span(ctx, "engine.bill")()
	res, err := e.eval.EvaluatePeriodCtx(ctx, load, periodContext(in))
	if err != nil {
		return nil, translateEngineErr(err)
	}
	return e.billFromResult(res), nil
}

// BillMonths splits the load into calendar months and bills each month
// concurrently, threading the running historical peak into ratchet
// charges via the engine's peak prescan. Bills come back in
// chronological order, identical to billing the months sequentially.
func (e *Engine) BillMonths(load *timeseries.PowerSeries, in BillingInput) ([]*Bill, error) {
	return e.BillMonthsWorkers(load, in, 0)
}

// BillMonthsWorkers is BillMonths with an explicit worker-pool size;
// workers <= 0 selects GOMAXPROCS, 1 forces sequential evaluation.
func (e *Engine) BillMonthsWorkers(load *timeseries.PowerSeries, in BillingInput, workers int) ([]*Bill, error) {
	return e.BillMonthsCtx(context.Background(), load, in, workers)
}

// BillMonthsCtx is BillMonthsWorkers with cooperative cancellation
// threaded into the month worker pool: once ctx is done, workers stop
// picking up months and the cancellation error is returned.
func (e *Engine) BillMonthsCtx(ctx context.Context, load *timeseries.PowerSeries, in BillingInput, workers int) ([]*Bill, error) {
	defer obs.Span(ctx, "engine.bill_months")()
	if load == nil || load.Len() == 0 {
		// A load with no samples has no months to bill.
		return []*Bill{}, nil
	}
	results, err := e.eval.EvaluateMonths(load, periodContext(in), billing.MonthsOptions{Workers: workers, Context: ctx})
	if err != nil {
		return nil, translateEngineErr(err)
	}
	// Convert into slab-backed bills: one Bill slab and one shared
	// line-item slab (sub-sliced with full capacity caps so a caller
	// appending to one bill's lines cannot clobber the next bill's).
	nlines := 0
	for _, r := range results {
		nlines += len(r.Lines)
	}
	bills := make([]*Bill, len(results))
	slab := make([]Bill, len(results))
	lineSlab := make([]LineItem, nlines)
	for i, r := range results {
		lines := lineSlab[:len(r.Lines):len(r.Lines)]
		lineSlab = lineSlab[len(r.Lines):]
		e.fillBill(&slab[i], r, lines)
		bills[i] = &slab[i]
	}
	return bills, nil
}

// Incremental opens a staged month-by-month billing session over the
// load — the optimizer's objective fast path. The caller typically
// builds load via timeseries.PowerSeries.WithSamples over a mutable
// buffer, mutates the buffer between candidates, and Stages only the
// months it touched; see billing.IncrementalMonths for the
// stage/commit/discard contract.
func (e *Engine) Incremental(ctx context.Context, load *timeseries.PowerSeries, in BillingInput) (*billing.IncrementalMonths, error) {
	im, err := e.eval.IncrementalMonths(ctx, load, periodContext(in))
	if err != nil {
		return nil, translateEngineErr(err)
	}
	return im, nil
}

// periodContext maps the contract-level billing input onto the engine's
// period context.
func periodContext(in BillingInput) billing.PeriodContext {
	ctx := billing.PeriodContext{HistoricalPeak: in.HistoricalPeak}
	if len(in.Events) > 0 {
		ctx.Emergencies = make([]billing.Window, len(in.Events))
		for i, ev := range in.Events {
			ctx.Emergencies[i] = billing.Window{Start: ev.Start, End: ev.End()}
		}
	}
	return ctx
}

// billFromResult converts an engine period result into a Bill.
func (e *Engine) billFromResult(r *billing.Result) *Bill {
	bill := &Bill{}
	e.fillBill(bill, r, make([]LineItem, len(r.Lines)))
	return bill
}

// fillBill populates a caller-owned Bill from an engine period result;
// lines must have len(r.Lines) elements and becomes the bill's Lines.
func (e *Engine) fillBill(bill *Bill, r *billing.Result, lines []LineItem) {
	*bill = Bill{
		Contract:    e.c.Name,
		PeriodStart: r.PeriodStart,
		PeriodEnd:   r.PeriodEnd,
		Energy:      r.Energy,
		PeakDemand:  r.Peak,
		Lines:       lines,
		Total:       r.Total,
	}
	for i, l := range r.Lines {
		lines[i] = LineItem{
			Component:   componentOf(l.Class),
			Description: l.Description,
			Quantity:    l.Quantity,
			Amount:      l.Amount,
		}
	}
}

// componentOf maps engine line-item classes onto typology components.
func componentOf(c billing.Class) Component {
	switch c {
	case billing.ClassFixedTariff:
		return CompFixedTariff
	case billing.ClassTOUTariff:
		return CompTOUTariff
	case billing.ClassDynamicTariff:
		return CompDynamicTariff
	case billing.ClassDemandCharge:
		return CompDemandCharge
	case billing.ClassPowerband:
		return CompPowerband
	case billing.ClassEmergencyDR:
		return CompEmergencyDR
	case billing.ClassFlatFee:
		return CompFlatFee
	default:
		return CompFlatFee
	}
}

// translateEngineErr keeps the package's historical error text for the
// empty-load case.
func translateEngineErr(err error) error {
	if errors.Is(err, billing.ErrEmptyLoad) {
		return errors.New("contract: cannot bill an empty load profile")
	}
	return err
}
