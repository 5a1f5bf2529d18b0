package billing

// Incremental month re-evaluation: the bill-as-objective fast path for
// load-reshaping optimizers. A candidate perturbation touches one or two
// calendar months of a year-long series; re-running EvaluateMonths would
// bill all twelve. IncrementalMonths keeps the committed per-month
// results and re-evaluates only the touched months (plus, for ratchet
// contracts, any later month whose historical peak the touch changed),
// with stage/commit/discard semantics matching a local-search accept/
// reject loop.
//
// The caller owns the sample storage: build the load with
// timeseries.PowerSeries.WithSamples over a mutable buffer, mutate the
// buffer, then Stage the months mutated. Month views are created once —
// block boundaries depend only on the series clock, not the sample
// values — so they always read the buffer's current contents.
//
// Staged evaluation is exact: a Stage over every month produces the same
// per-month totals as EvaluateMonths on the same samples (pinned by
// equivalence tests), because the per-month arithmetic is the same
// evaluatePeriodInto core with the same prefix-maximum historical peak.

import (
	"context"

	"repro/internal/timeseries"
	"repro/internal/units"
)

// HistoricalPeakUser is an optional LineItemProducer extension letting
// the incremental evaluator know whether a producer's arithmetic reads
// PeriodContext.HistoricalPeak. Producers that read the historical peak
// MUST implement it (returning true for the configurations that do);
// producers that do not implement it are assumed peak-independent, which
// lets a touched month skip re-evaluating every month after it.
type HistoricalPeakUser interface {
	// UsesHistoricalPeak reports whether this producer's line items
	// depend on PeriodContext.HistoricalPeak.
	UsesHistoricalPeak() bool
}

// UsesHistoricalPeak reports whether any compiled producer bills against
// PeriodContext.HistoricalPeak (in practice: a ratchet demand charge).
// When false, months are independent billing periods and incremental
// staging re-evaluates exactly the touched months.
func (e *Evaluator) UsesHistoricalPeak() bool {
	for _, p := range e.producers {
		if u, ok := p.(HistoricalPeakUser); ok && u.UsesHistoricalPeak() {
			return true
		}
	}
	return false
}

// IncrementalMonths is a stateful per-month billing session over one
// load series whose samples the caller mutates between stages. It is
// not safe for concurrent use.
type IncrementalMonths struct {
	eval    *Evaluator
	pctx    PeriodContext
	months  []timeseries.PowerSeries
	blocks  []timeseries.MonthBlock
	ratchet bool

	// Committed state: per-month peaks, the historical peak entering
	// each month (prefix maximum), per-month results, and their total.
	peaks   []units.Power
	hist    []units.Power
	results []Result
	total   units.Money

	// Staged state, valid between Stage and Commit/Discard. dirty marks
	// the months the pending stage re-evaluated; their candidate results
	// live in stageResults at the same index.
	dirty        []bool
	stageResults []Result
	stagePeaks   []units.Power
	stageHist    []units.Power
	stageTotal   units.Money
	staged       bool

	evals int
}

// IncrementalMonths evaluates every calendar month of load sequentially
// and returns a session ready for staged re-evaluation. The load's
// sample storage may be mutated by the caller afterwards (WithSamples
// pattern); the session's month views read the current contents.
func (e *Evaluator) IncrementalMonths(ctx context.Context, load *timeseries.PowerSeries, pctx PeriodContext) (*IncrementalMonths, error) {
	if load == nil || load.Len() == 0 {
		return nil, ErrEmptyLoad
	}
	blocks := load.Blocks()
	months := load.Months()
	n := len(months)
	im := &IncrementalMonths{
		eval:         e,
		pctx:         pctx,
		months:       months,
		blocks:       blocks,
		ratchet:      e.UsesHistoricalPeak(),
		peaks:        make([]units.Power, n),
		hist:         make([]units.Power, n),
		results:      make([]Result, n),
		dirty:        make([]bool, n),
		stageResults: make([]Result, n),
		stagePeaks:   make([]units.Power, n),
		stageHist:    make([]units.Power, n),
	}
	for i := range blocks {
		im.peaks[i] = blocks[i].Peak()
	}
	enteringPeaks(im.hist, im.peaks, pctx.HistoricalPeak)
	for i := range months {
		mctx := pctx
		mctx.HistoricalPeak = im.hist[i]
		if err := e.evaluatePeriodInto(ctx, &im.months[i], mctx, &im.results[i]); err != nil {
			return nil, err
		}
		im.evals++
		im.total += im.results[i].Total
	}
	return im, nil
}

// Months returns the number of calendar months in the session.
func (im *IncrementalMonths) Months() int { return len(im.months) }

// Total returns the committed grand total across all months.
func (im *IncrementalMonths) Total() units.Money { return im.total }

// Evaluations returns the cumulative number of single-month evaluations
// performed (including the initial full pass) — the optimizer's measure
// of how much re-billing the incremental path actually did.
func (im *IncrementalMonths) Evaluations() int { return im.evals }

// Result returns the committed result for month i. The returned pointer
// is invalidated by the next Commit of a stage touching month i.
func (im *IncrementalMonths) Result(i int) *Result { return &im.results[i] }

// Stage re-evaluates the given months against the series' current
// sample contents and returns the candidate grand total. touched lists
// the month indices whose samples changed since the last Commit (order
// and duplicates are irrelevant). For ratchet-sensitive evaluators any
// later month whose entering historical peak changed is re-evaluated
// too. A new Stage discards any previous uncommitted stage.
func (im *IncrementalMonths) Stage(ctx context.Context, touched []int) (units.Money, error) {
	im.Discard()

	copy(im.stagePeaks, im.peaks)
	for _, m := range touched {
		im.stagePeaks[m] = im.blocks[m].Peak()
	}

	// Recompute the prefix-maximum historical peak; for peak-independent
	// evaluators the committed one is still valid and months stay
	// independent.
	if im.ratchet {
		enteringPeaks(im.stageHist, im.stagePeaks, im.pctx.HistoricalPeak)
	} else {
		copy(im.stageHist, im.hist)
	}

	for _, m := range touched {
		im.dirty[m] = true
	}
	if im.ratchet {
		for i := range im.stageHist {
			if im.stageHist[i] != im.hist[i] {
				im.dirty[i] = true
			}
		}
	}

	im.stageTotal = im.total
	for i := range im.dirty {
		if !im.dirty[i] {
			continue
		}
		mctx := im.pctx
		mctx.HistoricalPeak = im.stageHist[i]
		if err := im.eval.evaluatePeriodInto(ctx, &im.months[i], mctx, &im.stageResults[i]); err != nil {
			im.Discard()
			return 0, err
		}
		im.evals++
		im.stageTotal += im.stageResults[i].Total - im.results[i].Total
	}
	im.staged = true
	return im.stageTotal, nil
}

// Commit adopts the pending stage: staged month results replace the
// committed ones and the staged peaks/historical peaks/total become
// current. Commit without a pending stage is a no-op.
func (im *IncrementalMonths) Commit() {
	if !im.staged {
		return
	}
	for i := range im.dirty {
		if im.dirty[i] {
			im.results[i] = im.stageResults[i]
			im.dirty[i] = false
		}
	}
	im.peaks, im.stagePeaks = im.stagePeaks, im.peaks
	im.hist, im.stageHist = im.stageHist, im.hist
	im.total = im.stageTotal
	im.staged = false
}

// Discard drops the pending stage, keeping the committed state. The
// caller must also revert its own sample-buffer mutations — the session
// never copies samples back.
func (im *IncrementalMonths) Discard() {
	if !im.staged {
		for i := range im.dirty {
			im.dirty[i] = false
		}
		return
	}
	for i := range im.dirty {
		im.dirty[i] = false
	}
	im.staged = false
}
