// Package advisor implements the decision support the paper's discussion
// asks for: "SCs with direct negotiation responsibility over their power
// procurement contracts should seek to influence the implementation of
// these elements in their own contracts" (§5). Given a site's reference
// load and a menu of candidate contract structures, it ranks the
// candidates by annual cost, fits powerband limits to the site's actual
// consumption envelope, and frames the result as renegotiation advice.
package advisor

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/billing"
	"repro/internal/contract"
	"repro/internal/demand"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// Candidate is one contract structure under consideration.
type Candidate struct {
	Name     string
	Contract *contract.Contract
}

// Scored is one evaluated candidate.
type Scored struct {
	Candidate Candidate
	// Annual is the cost of the reference load under the candidate.
	Annual units.Money
	// DeltaVsBest is the premium over the cheapest candidate.
	DeltaVsBest units.Money
}

// EngineCandidate is a candidate whose contract is already compiled —
// the form long-lived services hand in, so a cached engine is billed
// without recompiling per sweep.
type EngineCandidate struct {
	Name   string
	Engine *contract.Engine
}

// Rank bills the reference load under every candidate and returns them
// cheapest first.
func Rank(candidates []Candidate, load *timeseries.PowerSeries, in contract.BillingInput) ([]Scored, error) {
	compiled := make([]EngineCandidate, 0, len(candidates))
	for _, cand := range candidates {
		// Compile once per candidate; the engine bills all months in a
		// single pass each with the ratchet threaded through.
		eng, err := contract.NewEngine(cand.Contract)
		if err != nil {
			return nil, fmt.Errorf("advisor: candidate %q: %w", cand.Name, err)
		}
		compiled = append(compiled, EngineCandidate{Name: cand.Name, Engine: eng})
	}
	return RankEngines(context.Background(), compiled, load, in)
}

// RankEngines bills the reference load under every pre-compiled
// candidate and returns them cheapest first. Evaluation honours ctx:
// a cancelled sweep stops at the current candidate.
func RankEngines(ctx context.Context, candidates []EngineCandidate, load *timeseries.PowerSeries, in contract.BillingInput) ([]Scored, error) {
	if len(candidates) == 0 {
		return nil, errors.New("advisor: no candidates")
	}
	scored := make([]Scored, 0, len(candidates))
	for _, cand := range candidates {
		bills, err := cand.Engine.BillMonthsCtx(ctx, load, in, 0)
		if err != nil {
			return nil, fmt.Errorf("advisor: candidate %q: %w", cand.Name, err)
		}
		scored = append(scored, Scored{
			Candidate: Candidate{Name: cand.Name, Contract: cand.Engine.Contract()},
			Annual:    contract.TotalOf(bills),
		})
	}
	sort.SliceStable(scored, func(a, b int) bool { return scored[a].Annual < scored[b].Annual })
	best := scored[0].Annual
	for i := range scored {
		scored[i].DeltaVsBest = scored[i].Annual - best
	}
	return scored, nil
}

// FitPowerband chooses the tightest upper limit whose expected penalty
// on the reference load stays at or below budget: it searches the load's
// upper quantiles from tight to loose. The returned band uses the given
// penalty rate and no lower limit. An error is returned when even a
// band at the observed peak (which costs nothing) violates the search
// bounds — which cannot happen with a non-negative budget — or when the
// load is empty.
func FitPowerband(load *timeseries.PowerSeries, penalty units.EnergyPrice, budget units.Money) (*demand.Powerband, error) {
	if load == nil || load.Len() == 0 {
		return nil, errors.New("advisor: empty load")
	}
	if penalty < 0 {
		return nil, errors.New("advisor: penalty must be non-negative")
	}
	if budget < 0 {
		return nil, errors.New("advisor: budget must be non-negative")
	}
	// Search quantiles from tight (p80) to loose (p100).
	for _, q := range []float64{0.80, 0.85, 0.90, 0.95, 0.98, 0.99, 0.995, 1.0} {
		limit, err := load.Percentile(q)
		if err != nil {
			return nil, err
		}
		if limit <= 0 {
			continue
		}
		band, err := demand.NewUpperPowerband(limit, penalty)
		if err != nil {
			return nil, err
		}
		ev, err := billing.NewEvaluator(band)
		if err != nil {
			return nil, err
		}
		res, err := ev.EvaluatePeriod(load, billing.PeriodContext{})
		if err != nil {
			return nil, err
		}
		if res.Total <= budget {
			return band, nil
		}
	}
	// The p100 band costs zero by construction, so this is unreachable
	// unless the whole load is non-positive.
	return nil, errors.New("advisor: load has no positive consumption to band")
}

// Advice frames a ranking as a renegotiation recommendation.
type Advice struct {
	// Current and Best are the site's current structure and the
	// cheapest candidate.
	Current Scored
	Best    Scored
	// AnnualSaving is current minus best (≥ 0).
	AnnualSaving units.Money
	// ShouldRenegotiate is true when a different structure beats the
	// current one by more than the materiality threshold.
	ShouldRenegotiate bool
}

// Advise ranks candidates and compares the named current structure
// against the winner. materiality is the minimum annual saving that
// justifies renegotiation effort.
func Advise(currentName string, candidates []Candidate, load *timeseries.PowerSeries, in contract.BillingInput, materiality units.Money) (*Advice, error) {
	ranked, err := Rank(candidates, load, in)
	if err != nil {
		return nil, err
	}
	return adviceFromRanking(currentName, ranked, materiality)
}

// AdviseEngines is Advise over pre-compiled candidates with
// cancellation, returning the advice together with the full ranking.
func AdviseEngines(ctx context.Context, currentName string, candidates []EngineCandidate, load *timeseries.PowerSeries, in contract.BillingInput, materiality units.Money) (*Advice, []Scored, error) {
	ranked, err := RankEngines(ctx, candidates, load, in)
	if err != nil {
		return nil, nil, err
	}
	advice, err := adviceFromRanking(currentName, ranked, materiality)
	if err != nil {
		return nil, nil, err
	}
	return advice, ranked, nil
}

func adviceFromRanking(currentName string, ranked []Scored, materiality units.Money) (*Advice, error) {
	var current *Scored
	for i := range ranked {
		if ranked[i].Candidate.Name == currentName {
			current = &ranked[i]
			break
		}
	}
	if current == nil {
		return nil, fmt.Errorf("advisor: current structure %q is not among the candidates", currentName)
	}
	a := &Advice{Current: *current, Best: ranked[0]}
	a.AnnualSaving = current.Annual - ranked[0].Annual
	a.ShouldRenegotiate = a.AnnualSaving > materiality
	return a, nil
}

// String renders the advice.
func (a *Advice) String() string {
	if !a.ShouldRenegotiate {
		return fmt.Sprintf("keep %q: no candidate beats it materially (best alternative saves %s/yr)",
			a.Current.Candidate.Name, a.AnnualSaving)
	}
	return fmt.Sprintf("renegotiate from %q to %q: saves %s/yr",
		a.Current.Candidate.Name, a.Best.Candidate.Name, a.AnnualSaving)
}
