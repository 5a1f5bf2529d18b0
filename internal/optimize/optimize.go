// Package optimize searches for the feasible reshaping of a facility
// load profile that minimizes its bill under a compiled contract — the
// demand-charge optimization workload the paper's analysis motivates:
// demand charges, ratchets and powerband violations (not energy rates)
// dominate supercomputing-center bills, and Xu & Li's partial-execution
// result shows that structure is exploitable.
//
// The model is deliberately schedule-free: instead of job-level
// placement it reshapes the metered kW series directly under a
// flexibility envelope (how much energy may be time-shifted, how much
// may be dropped via partial execution, how fast the facility may ramp,
// and an immovable-load floor). The search is deterministic seeded
// simulated annealing over month-scoped perturbations:
//
//   - peak shaving with in-month valley filling (attacks demand
//     charges and ratchets, conserves energy),
//   - partial-execution shaving (drops energy against its own budget,
//     à la Xu & Li),
//   - block deferral between months (attacks ratchets and powerband
//     excursions).
//
// The objective is the real billing engine: every candidate is priced
// through contract.Engine's incremental month evaluator, re-billing
// only the months the perturbation touched. Same seed + same inputs →
// byte-identical result (pinned by property tests); every emitted
// schedule is feasible and energy-conserving within the partial budget
// (pinned by fuzz tests and a final CheckFeasible pass).
package optimize

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/contract"
	"repro/internal/obs"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// Span names recorded when the optimizing context carries an
// obs.Registry: the whole search loop, and each candidate's objective
// evaluation (the incremental re-bill).
const (
	SpanSearch   = "optimize_search"
	SpanEvaluate = "optimize_evaluate"
)

// Errors returned by Optimize.
var (
	ErrEmptyBaseline = errors.New("optimize: baseline load is empty")
	ErrInfeasible    = errors.New("optimize: candidate violates the flexibility envelope")
)

// Flexibility is the load-reshaping envelope: what the facility
// operator has declared the workload can tolerate.
type Flexibility struct {
	// DeferrableFraction is the fraction of baseline energy that may be
	// moved in time (peak shaving, valley filling, block deferral). The
	// deferrable budget in kWh is this fraction of baseline energy.
	DeferrableFraction float64 `json:"deferrable_fraction"`
	// PartialFraction is the fraction of baseline energy that may be
	// dropped outright — Xu & Li's partial execution, where a slice of
	// the workload runs at reduced fidelity or not at all.
	PartialFraction float64 `json:"partial_fraction,omitempty"`
	// MaxRampKW caps how fast a reshaped schedule may change between
	// consecutive metering intervals, in kW per step. Steps where the
	// baseline itself ramps faster are allowed at the baseline's rate
	// (the envelope never declares the as-metered load infeasible).
	// Zero or negative means unconstrained.
	MaxRampKW float64 `json:"max_ramp_kw_per_step,omitempty"`
	// FloorKW is the immovable load: the reshaped schedule never drops
	// below this level, except where the baseline already does.
	FloorKW float64 `json:"floor_kw,omitempty"`
}

// Validate checks the envelope's parameters.
func (f Flexibility) Validate() error {
	if f.DeferrableFraction < 0 || f.DeferrableFraction > 1 {
		return errors.New("optimize: deferrable fraction must be in [0, 1]")
	}
	if f.PartialFraction < 0 || f.PartialFraction > 1 {
		return errors.New("optimize: partial-execution fraction must be in [0, 1]")
	}
	if f.FloorKW < 0 {
		return errors.New("optimize: load floor must be non-negative")
	}
	if math.IsNaN(f.DeferrableFraction) || math.IsNaN(f.PartialFraction) ||
		math.IsNaN(f.MaxRampKW) || math.IsNaN(f.FloorKW) {
		return errors.New("optimize: flexibility parameters must not be NaN")
	}
	return nil
}

// Options tunes the search.
type Options struct {
	// Seed seeds the search's RNG; the whole run is a deterministic
	// function of (engine, baseline, input, flexibility, options).
	// Zero selects seed 1.
	Seed int64 `json:"seed,omitempty"`
	// Candidates is the number of perturbations attempted (default
	// 2000).
	Candidates int `json:"candidates,omitempty"`
	// InitialTempFrac / FinalTempFrac set the annealing temperature
	// schedule as fractions of the baseline bill (defaults 1e-4 and
	// 1e-7): the temperature decays geometrically from the first
	// candidate to the last.
	InitialTempFrac float64 `json:"initial_temp_frac,omitempty"`
	FinalTempFrac   float64 `json:"final_temp_frac,omitempty"`
}

// DefaultCandidates is the default search length.
const DefaultCandidates = 2000

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Candidates <= 0 {
		o.Candidates = DefaultCandidates
	}
	if o.InitialTempFrac <= 0 {
		o.InitialTempFrac = 1e-4
	}
	if o.FinalTempFrac <= 0 {
		o.FinalTempFrac = 1e-7
	}
	return o
}

// SeriesSummary describes one load profile for reports.
type SeriesSummary struct {
	Samples    int     `json:"samples"`
	EnergyKWh  float64 `json:"energy_kwh"`
	PeakKW     float64 `json:"peak_kw"`
	MeanKW     float64 `json:"mean_kw"`
	LoadFactor float64 `json:"load_factor"`
	MaxRampKW  float64 `json:"max_ramp_kw_per_step"`
}

func summarize(s *timeseries.PowerSeries) SeriesSummary {
	peak, _, _ := s.Peak()
	var maxStep float64
	for i := 0; i+1 < s.Len(); i++ {
		if d := math.Abs(float64(s.At(i+1) - s.At(i))); d > maxStep {
			maxStep = d
		}
	}
	return SeriesSummary{
		Samples:    s.Len(),
		EnergyKWh:  float64(s.Energy()),
		PeakKW:     float64(peak),
		MeanKW:     float64(s.Mean()),
		LoadFactor: s.LoadFactor(),
		MaxRampKW:  maxStep,
	}
}

// ComponentSaving is the per-typology-component bill delta.
type ComponentSaving struct {
	Component string  `json:"component"`
	Baseline  float64 `json:"baseline"`
	Optimized float64 `json:"optimized"`
	Saving    float64 `json:"saving"`
}

// Stats reports how the search went.
type Stats struct {
	// Candidates is the number of perturbations requested; Evaluated
	// counts those that produced a well-formed move and were priced.
	Candidates int `json:"candidates"`
	Evaluated  int `json:"evaluated"`
	// Accepted counts accepted moves (including uphill annealing
	// acceptances); Improved counts new best schedules.
	Accepted int `json:"accepted"`
	Improved int `json:"improved"`
	// RampRejected counts moves discarded for violating the ramp
	// envelope before pricing.
	RampRejected int `json:"ramp_rejected"`
	// MonthsReevaluated is how many single-month re-bills the
	// incremental objective performed during the search (the full
	// initial pass excluded) — the measure of the fast path's win over
	// re-billing every month per candidate.
	MonthsReevaluated int `json:"months_reevaluated"`
	// LastImprovement is the candidate index of the final best-schedule
	// improvement (-1 when the baseline was never beaten).
	LastImprovement int `json:"last_improvement"`
	// Converged reports that the tail of the search ran without finding
	// a better schedule.
	Converged bool `json:"converged"`
}

// Result is one optimization outcome. Money amounts are in currency
// units (micro-unit exact, like bill JSON).
type Result struct {
	Contract        string            `json:"contract"`
	Seed            int64             `json:"seed"`
	BaselineTotal   float64           `json:"baseline_total"`
	OptimizedTotal  float64           `json:"optimized_total"`
	Savings         float64           `json:"savings"`
	SavingsFraction float64           `json:"savings_fraction"`
	Baseline        SeriesSummary     `json:"baseline"`
	Optimized       SeriesSummary     `json:"optimized"`
	Components      []ComponentSaving `json:"components"`
	// Binding names the envelope constraints the search pressed against
	// ("deferrable-budget", "partial-budget", "ramp-limit",
	// "load-floor").
	Binding []string `json:"binding_constraints"`
	// MovedKWh / DroppedKWh are the flexibility actually consumed by
	// the returned schedule; the budgets are what was available.
	MovedKWh         float64     `json:"moved_kwh"`
	DroppedKWh       float64     `json:"dropped_kwh"`
	DeferBudgetKWh   float64     `json:"defer_budget_kwh"`
	PartialBudgetKWh float64     `json:"partial_budget_kwh"`
	Flexibility      Flexibility `json:"flexibility"`
	Stats            Stats       `json:"stats"`

	// Series is the optimized schedule itself (not serialized; the CLI
	// exports it as CSV on request).
	Series *timeseries.PowerSeries `json:"-"`

	baselineMoney  units.Money
	optimizedMoney units.Money
}

// BaselineMoney / OptimizedMoney return the exact totals.
func (r *Result) BaselineMoney() units.Money  { return r.baselineMoney }
func (r *Result) OptimizedMoney() units.Money { return r.optimizedMoney }

// ctxPollStride is how many candidates the search loop processes
// between explicit context polls (the objective evaluation also polls
// on its own sample strides).
const ctxPollStride = 64

// Optimize searches for the cheapest feasible reshaping of baseline
// under eng's contract. It never returns a schedule worse than the
// baseline, never returns an infeasible or energy-non-conserving one,
// and is a deterministic function of its arguments.
func Optimize(ctx context.Context, eng *contract.Engine, baseline *timeseries.PowerSeries, in contract.BillingInput, flex Flexibility, opts Options) (*Result, error) {
	if baseline == nil || baseline.Len() == 0 {
		return nil, ErrEmptyBaseline
	}
	if err := flex.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()

	s := newSearchState(baseline, flex, opts.Seed)
	cand := baseline.WithSamples(s.buf)
	s.setBlocks(cand.Blocks())

	im, err := eng.Incremental(ctx, cand, in)
	if err != nil {
		return nil, err
	}
	initialEvals := im.Evaluations()
	baseTotal := im.Total()

	// Best-so-far starts at the baseline: the search can only improve.
	bestBuf := baseline.AppendSamples(nil)
	bestTotal := baseTotal
	bestMoved, bestDropped := 0.0, 0.0

	stats := Stats{Candidates: opts.Candidates, LastImprovement: -1}
	curTotal := baseTotal
	t0 := opts.InitialTempFrac * math.Abs(baseTotal.Float())
	cooling := 1.0
	if opts.Candidates > 1 {
		cooling = math.Pow(opts.FinalTempFrac/opts.InitialTempFrac, 1/float64(opts.Candidates-1))
	}

	endSearch := obs.Span(ctx, SpanSearch)
	defer endSearch()
	done := ctx.Done()
	temp := t0
	for k := 0; k < opts.Candidates; k++ {
		if done != nil && k%ctxPollStride == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		if k > 0 {
			temp *= cooling
		}

		movedDelta, droppedDelta, ok := s.propose()
		if !ok {
			continue
		}
		endEval := obs.Span(ctx, SpanEvaluate)
		candTotal, err := im.Stage(ctx, s.touched)
		endEval()
		if err != nil {
			return nil, err
		}
		stats.Evaluated++

		delta := candTotal - curTotal
		accept := delta < 0
		if !accept && temp > 0 {
			if s.rng.Float64() < math.Exp(-delta.Float()/temp) {
				accept = true
			}
		}
		if !accept {
			im.Discard()
			s.revert()
			continue
		}
		im.Commit()
		s.commit()
		curTotal = candTotal
		s.moved += movedDelta
		s.dropped += droppedDelta
		stats.Accepted++
		if curTotal < bestTotal {
			bestTotal = curTotal
			copy(bestBuf, s.buf)
			bestMoved, bestDropped = s.moved, s.dropped
			stats.Improved++
			stats.LastImprovement = k
		}
	}
	stats.RampRejected = s.rampRejected
	stats.MonthsReevaluated = im.Evaluations() - initialEvals
	window := opts.Candidates / 4
	if window > 500 {
		window = 500
	}
	if window < 1 {
		window = 1
	}
	stats.Converged = opts.Candidates-1-stats.LastImprovement >= window

	optimized := baseline.WithSamples(bestBuf)
	if err := CheckFeasible(baseline, optimized, flex, bestDropped); err != nil {
		// Belt and braces: the move set maintains feasibility by
		// construction, so this is an internal invariant failure, not a
		// user error.
		return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
	}

	res := &Result{
		Contract:         eng.Contract().Name,
		Seed:             opts.Seed,
		BaselineTotal:    baseTotal.Float(),
		OptimizedTotal:   bestTotal.Float(),
		Savings:          (baseTotal - bestTotal).Float(),
		Baseline:         summarize(baseline),
		Optimized:        summarize(optimized),
		MovedKWh:         round6(bestMoved),
		DroppedKWh:       round6(bestDropped),
		DeferBudgetKWh:   round6(s.deferBudget),
		PartialBudgetKWh: round6(s.partialBudget),
		Flexibility:      flex,
		Stats:            stats,
		Series:           optimized,
		baselineMoney:    baseTotal,
		optimizedMoney:   bestTotal,
	}
	if baseTotal != 0 {
		res.SavingsFraction = (baseTotal - bestTotal).Float() / baseTotal.Float()
	}
	res.Binding = s.binding(bestMoved, bestDropped, opts.Candidates)
	if err := res.fillComponents(ctx, eng, baseline, optimized, in, bestTotal); err != nil {
		return nil, err
	}
	return res, nil
}

// round6 rounds kWh quantities to micro-kWh so reported energy figures
// are stable across platforms' float formatting of accumulated sums.
func round6(v float64) float64 { return math.Round(v*1e6) / 1e6 }

// fillComponents re-bills both schedules in full and attributes the
// saving to typology components.
func (r *Result) fillComponents(ctx context.Context, eng *contract.Engine, baseline, optimized *timeseries.PowerSeries, in contract.BillingInput, wantTotal units.Money) error {
	baseBills, err := eng.BillMonthsCtx(ctx, baseline, in, 0)
	if err != nil {
		return err
	}
	optBills, err := eng.BillMonthsCtx(ctx, optimized, in, 0)
	if err != nil {
		return err
	}
	var check units.Money
	for _, b := range optBills {
		check += b.Total
	}
	if check != wantTotal {
		return fmt.Errorf("optimize: incremental objective diverged from full re-bill (%v vs %v)", wantTotal, check)
	}
	sum := func(bills []*contract.Bill) map[contract.Component]units.Money {
		m := make(map[contract.Component]units.Money)
		for _, b := range bills {
			for _, l := range b.Lines {
				m[l.Component] += l.Amount
			}
		}
		return m
	}
	baseBy, optBy := sum(baseBills), sum(optBills)
	order := append(contract.AllComponents(), contract.CompFlatFee)
	for _, c := range order {
		b, o := baseBy[c], optBy[c]
		if b == 0 && o == 0 {
			continue
		}
		r.Components = append(r.Components, ComponentSaving{
			Component: c.String(),
			Baseline:  b.Float(),
			Optimized: o.Float(),
			Saving:    (b - o).Float(),
		})
	}
	return nil
}

// binding names the envelope constraints the search pressed against, in
// a fixed deterministic order.
func (s *searchState) binding(moved, dropped float64, candidates int) []string {
	var out []string
	if s.deferBudget > 0 && moved >= 0.95*s.deferBudget {
		out = append(out, "deferrable-budget")
	}
	if s.partialBudget > 0 && dropped >= 0.95*s.partialBudget {
		out = append(out, "partial-budget")
	}
	if s.rampRejected*20 >= candidates {
		out = append(out, "ramp-limit")
	}
	if s.floorLimited*20 >= candidates {
		out = append(out, "load-floor")
	}
	return out
}
