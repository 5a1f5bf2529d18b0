// Package billing is the unified single-pass billing engine underneath
// package contract. The paper's contract typology (Figure 1) prices a
// load profile through several independent components — energy tariffs
// (kWh branch), demand charges and powerbands (kW branch), emergency-DR
// obligations ("other") and flat fees — and the naive evaluation scans
// the metered series once per component. On a year of 15-minute data
// with a handful of components that is a dozen full traversals per
// bill, which matters because cost optimizers (demand-charge reduction,
// workload modulation under real-world pricing) call bill evaluation in
// a tight inner loop.
//
// The engine inverts the loop: every component implements
// LineItemProducer and compiles a columnar Kernel, and the Evaluator
// scans the load series exactly once per billing period, handing each
// contiguous chunk of samples to every kernel's scanner (columnar.go) —
// accumulating energy, peak, per-tariff cost, billed demand, powerband
// excursions and emergency exposure simultaneously. Calendar months
// evaluate concurrently on a worker pool (months.go); the ratchet demand
// charge's sequential dependency on the historical peak is resolved by
// a cheap peak prescan before the parallel phase.
//
// The engine is arithmetic-identical to the legacy oracle,
// contract.ComputeBillLegacy: every scanner performs the same
// floating-point operations in the same order as the oracle's pricing
// of that component, so line amounts match to the micro-currency-unit
// (see contract's golden equivalence tests).
package billing

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/timeseries"
	"repro/internal/units"
)

// ErrEmptyLoad is returned when a period has no metering samples.
var ErrEmptyLoad = errors.New("billing: cannot evaluate an empty load profile")

// cancelCheckStride is how many samples the scan processes between
// context-cancellation checks. A power of two so the check
// compiles to a mask; at 15-minute metering a year is ~35k samples, so
// a cancelled evaluation stops within a small fraction of a period.
const cancelCheckStride = 2048

// Span names recorded when the evaluating context carries an
// obs.Registry (obs.WithSpans). Per-family scan cost is recorded
// under SpanFamilyPrefix + the producer's family ("billing.tariff",
// "billing.demand", ...).
const (
	// SpanPeriod covers one EvaluatePeriodCtx call end to end.
	SpanPeriod = "billing.period"
	// SpanMonths covers one EvaluateMonths call end to end.
	SpanMonths = "billing.months"
	// SpanPrescan covers the ratchet peak prescan before the parallel
	// month phase.
	SpanPrescan = "billing.prescan"
	// SpanFamilyPrefix prefixes per-component-family scan spans.
	SpanFamilyPrefix = "billing."
)

// traceBlock is how many samples the traced scan hands each component
// family between timing boundaries. Larger chunks amortize the clock
// reads that attribute scan cost to component families; the chunk is
// also the traced scan's cancellation-poll stride.
const traceBlock = 512

// Class identifies what kind of contract component produced a line
// item. It mirrors the typology leaves plus the flat-fee class the
// paper excludes from the typology ("these are not included ... as they
// cannot be generalized").
type Class int

// Line-item classes.
const (
	ClassFixedTariff Class = iota
	ClassTOUTariff
	ClassDynamicTariff
	ClassDemandCharge
	ClassPowerband
	ClassEmergencyDR
	ClassFlatFee
)

var classNames = map[Class]string{
	ClassFixedTariff:   "fixed-tariff",
	ClassTOUTariff:     "time-of-use-tariff",
	ClassDynamicTariff: "dynamic-tariff",
	ClassDemandCharge:  "demand-charge",
	ClassPowerband:     "powerband",
	ClassEmergencyDR:   "emergency-dr",
	ClassFlatFee:       "flat-fee",
}

// String returns the class name.
func (c Class) String() string {
	if n, ok := classNames[c]; ok {
		return n
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// LineItem is one itemized charge contributed by a producer.
type LineItem struct {
	// Class identifies the producing component kind.
	Class Class
	// Description is the human-readable label.
	Description string
	// Quantity describes the billed quantity ("8.40 GWh", "15.00 MW").
	Quantity string
	// Amount is the exact charge.
	Amount units.Money
}

// Window is a half-open [Start, End) wall-clock interval: a declared
// emergency event carried into the engine without depending on the
// contract layer, or a CPP tariff's critical window.
type Window struct {
	Start time.Time
	End   time.Time
}

// Covers reports whether instant t falls inside the window.
func (w Window) Covers(t time.Time) bool {
	return !t.Before(w.Start) && t.Before(w.End)
}

// PeriodContext carries the per-period billing inputs every scanner
// may need.
type PeriodContext struct {
	// HistoricalPeak feeds ratchet demand charges (0 if none).
	HistoricalPeak units.Power
	// Emergencies are the grid emergencies declared during the period.
	Emergencies []Window
}

// LineItemProducer is a contract component the engine can bill: it
// validates itself, describes itself, names its trace family, and
// compiles itself into a columnar Kernel (kernel.go). Producers and
// their kernels must be safe for concurrent use (month evaluation is
// parallel); all mutable state belongs in the kernel's scanners.
type LineItemProducer interface {
	// Validate checks the component's parameters.
	Validate() error
	// Describe returns a one-line human-readable description.
	Describe() string
	// SpanFamily names the component family ("tariff", "demand",
	// "powerband", "emergency", "fee") its scan cost is attributed to
	// in span traces.
	SpanFamily() string
	// CompileKernel compiles the component for the columnar scan.
	CompileKernel() Kernel
}

// FlatFee is the engine-level flat per-period charge (service fees,
// metering fees, taxes folded to a constant).
type FlatFee struct {
	Name   string
	Amount units.Money
}

// Validate accepts any flat fee (negative amounts model credits).
func (f FlatFee) Validate() error { return nil }

// Describe returns the fee's name.
func (f FlatFee) Describe() string { return f.Name }

// SpanFamily attributes fee scan cost (trivial) to "fee".
func (f FlatFee) SpanFamily() string { return "fee" }

// CompileKernel compiles the flat fee: no per-sample work at all.
func (f FlatFee) CompileKernel() Kernel { return feeKernel{fee: f} }

var _ LineItemProducer = FlatFee{}

type feeKernel struct{ fee FlatFee }

func (k feeKernel) NewScanner() Scanner { return &feeScanner{fee: k.fee} }

type feeScanner struct{ fee FlatFee }

func (s *feeScanner) Begin(*PeriodContext, time.Time, time.Duration, int) {}

func (s *feeScanner) Scan([]units.Power, int) {}

func (s *feeScanner) AppendLines(dst []LineItem) []LineItem {
	return append(dst, LineItem{
		Class:       ClassFlatFee,
		Description: s.fee.Name,
		Quantity:    "flat",
		Amount:      s.fee.Amount,
	})
}

// Result is the outcome of evaluating one billing period.
type Result struct {
	// PeriodStart / PeriodEnd delimit the billed interval.
	PeriodStart time.Time
	PeriodEnd   time.Time
	// Energy is the total consumption billed.
	Energy units.Energy
	// Peak is the highest metered interval; PeakTime its start instant.
	Peak     units.Power
	PeakTime time.Time
	// Lines are the itemized entries in producer order; Total is their
	// exact sum.
	Lines []LineItem
	Total units.Money
}

// Evaluator is a compiled set of producers, reusable across any number
// of periods and load profiles. It is immutable after construction and
// safe for concurrent use.
type Evaluator struct {
	producers []LineItemProducer
	// famNames / famIdx group producers by trace family (first-seen
	// order): famIdx[g] holds the producer indices of family famNames[g].
	// Precomputed so the traced path pays no per-period classification.
	famNames []string
	famIdx   [][]int
	// kernels holds every producer's compiled kernel, in producer order.
	kernels []Kernel
	// pool recycles scanSets (the per-period scanner state plus block
	// scratch) so steady-state evaluation does not allocate scanner
	// machinery.
	pool sync.Pool
	// now is the clock the traced path stamps span durations with. It
	// is instrumentation only — no billing arithmetic may depend on it —
	// and it is injectable (WithNow) so evaluation stays testable
	// without wall-clock reads.
	now func() time.Time
}

// NewEvaluator validates every producer, compiles its kernel and
// returns the evaluator.
func NewEvaluator(producers ...LineItemProducer) (*Evaluator, error) {
	e := &Evaluator{producers: producers, kernels: make([]Kernel, len(producers)), now: time.Now}
	seen := make(map[string]int)
	for i, p := range producers {
		if p == nil {
			return nil, fmt.Errorf("billing: producer %d is nil", i)
		}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("billing: producer %d (%T): %w", i, p, err)
		}
		e.kernels[i] = p.CompileKernel()
		f := p.SpanFamily()
		g, ok := seen[f]
		if !ok {
			g = len(e.famNames)
			seen[f] = g
			e.famNames = append(e.famNames, f)
			e.famIdx = append(e.famIdx, nil)
		}
		e.famIdx[g] = append(e.famIdx[g], i)
	}
	e.pool.New = func() any { return e.newScanSet() }
	return e, nil
}

// WithNow replaces the span-timing clock and returns e. Only the
// traced path reads it; bill arithmetic is clock-free either way.
func (e *Evaluator) WithNow(now func() time.Time) *Evaluator {
	if now != nil {
		e.now = now
	}
	return e
}

// EvaluatePeriod scans the load series once, feeding every producer's
// scanner, and assembles the period result. The built-in energy and
// peak aggregates ride the same pass.
func (e *Evaluator) EvaluatePeriod(load *timeseries.PowerSeries, ctx PeriodContext) (*Result, error) {
	return e.EvaluatePeriodCtx(context.Background(), load, ctx)
}

// EvaluatePeriodCtx is EvaluatePeriod with cooperative cancellation: the
// scan polls ctx every cancelCheckStride samples and returns ctx.Err()
// once the context is done. Long-lived callers (the billing service)
// use it to enforce per-request deadlines on evaluation itself rather
// than only between requests.
func (e *Evaluator) EvaluatePeriodCtx(ctx context.Context, load *timeseries.PowerSeries, pctx PeriodContext) (*Result, error) {
	res := new(Result)
	if err := e.evaluatePeriodInto(ctx, load, pctx, res); err != nil {
		return nil, err
	}
	return res, nil
}
