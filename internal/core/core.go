// Package core is the top of the library: it ties the facility, contract,
// grid and demand-response layers into the analyses the paper performs in
// prose — classifying a site's contract against the typology, decomposing
// its bill, quantifying how operation strategies (peak shaving, load
// shifting, DR participation) move the bill, and locating the incentive
// level at which DR participation starts to pay (the paper's central
// "the economic incentive ... is not high enough" claim, made computable).
package core

import (
	"errors"
	"fmt"

	"repro/internal/contract"
	"repro/internal/dr"
	"repro/internal/market"
	"repro/internal/tariff"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// Analysis is the contract-against-load report for one billing period.
type Analysis struct {
	// Profile is the contract's typology classification.
	Profile contract.Profile
	// Bill is the itemized bill for the period.
	Bill *contract.Bill
	// DemandShare is the kW-branch fraction of the bill.
	DemandShare float64
	// LoadFactor is average/peak of the period's load.
	LoadFactor float64
	// EffectiveRate is the all-in average price paid per kWh.
	EffectiveRate units.EnergyPrice
	// Incentives lists, per present tariff kind, the behaviour the
	// contract rewards (the paper's §3.2.1 mapping).
	Incentives []string
}

// Analyze bills one period's load under the contract and derives the
// headline quantities.
func Analyze(c *contract.Contract, load *timeseries.PowerSeries, in contract.BillingInput) (*Analysis, error) {
	bill, err := contract.ComputeBill(c, load, in)
	if err != nil {
		return nil, err
	}
	profile := contract.Classify(c)
	a := &Analysis{
		Profile:     profile,
		Bill:        bill,
		DemandShare: bill.DemandShare(),
		LoadFactor:  load.LoadFactor(),
	}
	if e := bill.Energy; e > 0 {
		a.EffectiveRate = units.EnergyPrice(bill.Total.Float() / float64(e))
	}
	for _, k := range []tariff.Kind{tariff.Fixed, tariff.TimeOfUse, tariff.Dynamic} {
		present := (k == tariff.Fixed && profile.FixedTariff) ||
			(k == tariff.TimeOfUse && profile.TOUTariff) ||
			(k == tariff.Dynamic && profile.DynamicTariff)
		if present {
			a.Incentives = append(a.Incentives, fmt.Sprintf("%s: %s", k, k.Incentive()))
		}
	}
	return a, nil
}

// PeakShave caps the load at (1−fraction) of its current peak — the
// simplest model of the "energy and power-aware" peak management the
// paper recommends SCs pursue against demand charges.
func PeakShave(load *timeseries.PowerSeries, fraction float64) (*timeseries.PowerSeries, error) {
	if fraction < 0 || fraction >= 1 {
		return nil, errors.New("core: shave fraction must be in [0,1)")
	}
	peak, _, err := load.Peak()
	if err != nil {
		return nil, err
	}
	limit := units.Power(float64(peak) * (1 - fraction))
	return load.ClampAbove(limit), nil
}

// ShaveResult quantifies one peak-shave what-if.
type ShaveResult struct {
	Fraction float64
	// BaselineTotal and ShavedTotal are the period bills.
	BaselineTotal units.Money
	ShavedTotal   units.Money
	// Savings = baseline − shaved.
	Savings units.Money
	// EnergyLost is the consumption removed by the cap (compute the
	// facility did not run).
	EnergyLost units.Energy
}

// PeakShaveSweep evaluates a set of shave fractions against a contract —
// the E2/E3 harness core.
func PeakShaveSweep(c *contract.Contract, load *timeseries.PowerSeries, fractions []float64, in contract.BillingInput) ([]ShaveResult, error) {
	// One compiled engine prices the baseline and every shaved variant.
	eng, err := contract.NewEngine(c)
	if err != nil {
		return nil, err
	}
	baseBill, err := eng.Bill(load, in)
	if err != nil {
		return nil, err
	}
	out := make([]ShaveResult, 0, len(fractions))
	for _, f := range fractions {
		shaved, err := PeakShave(load, f)
		if err != nil {
			return nil, err
		}
		bill, err := eng.Bill(shaved, in)
		if err != nil {
			return nil, err
		}
		out = append(out, ShaveResult{
			Fraction:      f,
			BaselineTotal: baseBill.Total,
			ShavedTotal:   bill.Total,
			Savings:       baseBill.Total - bill.Total,
			EnergyLost:    load.Energy() - shaved.Energy(),
		})
	}
	return out, nil
}

// BreakEvenIncentive finds, by bisection, the per-kWh DR energy
// incentive at which participating with the given strategy becomes
// profitable (net benefit crosses zero). Returns an error if even the
// hi incentive does not pay (the strategy's own cost dominates) or if
// participation pays even at lo (break-even below the bracket).
//
// This is the quantity behind the paper's conclusion that "the economic
// incentive in performing demand-side management ... is likely too low to
// accommodate the costly depreciation on hardware in SCs".
func BreakEvenIncentive(
	c *contract.Contract,
	baseline *timeseries.PowerSeries,
	strategy dr.Strategy,
	events []market.Event,
	committed units.Power,
	lo, hi units.EnergyPrice,
	in contract.BillingInput,
) (units.EnergyPrice, error) {
	if lo < 0 || hi <= lo {
		return 0, errors.New("core: need 0 <= lo < hi")
	}
	netAt := func(incentive units.EnergyPrice) (units.Money, error) {
		program := &market.Program{
			Kind:               market.EmergencyDR,
			CommittedReduction: committed,
			EnergyIncentive:    incentive,
		}
		ev, err := dr.Evaluate(c, baseline, strategy, program, events, in)
		if err != nil {
			return 0, err
		}
		return ev.NetBenefit, nil
	}
	nLo, err := netAt(lo)
	if err != nil {
		return 0, err
	}
	if nLo > 0 {
		return 0, fmt.Errorf("core: participation already pays at %v", lo)
	}
	nHi, err := netAt(hi)
	if err != nil {
		return 0, err
	}
	if nHi <= 0 {
		return 0, fmt.Errorf("core: participation does not pay even at %v", hi)
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		n, err := netAt(mid)
		if err != nil {
			return 0, err
		}
		if n > 0 {
			hi = mid
		} else {
			lo = mid
		}
		if hi-lo < 1e-6 {
			break
		}
	}
	return hi, nil
}

// Scenario bundles one full facility-under-contract study.
type Scenario struct {
	// Contract the site signed.
	Contract *contract.Contract
	// Load is the multi-month facility profile.
	Load *timeseries.PowerSeries
	// Billing carries historical peak and declared grid emergencies.
	Billing contract.BillingInput
	// Program and Strategy, when both set, add a DR participation
	// evaluated over Events.
	Program  *market.Program
	Strategy dr.Strategy
	Events   []market.Event
}

// ScenarioResult is the outcome of Run.
type ScenarioResult struct {
	// Bills are the per-calendar-month bills.
	Bills []*contract.Bill
	// Total is the sum over months.
	Total units.Money
	// DR is the participation evaluation (nil when not configured).
	DR *dr.Evaluation
}

// Run executes the scenario.
func (s *Scenario) Run() (*ScenarioResult, error) {
	if s.Contract == nil || s.Load == nil {
		return nil, errors.New("core: scenario needs a contract and a load")
	}
	bills, err := contract.BillMonths(s.Contract, s.Load, s.Billing)
	if err != nil {
		return nil, err
	}
	res := &ScenarioResult{Bills: bills, Total: contract.TotalOf(bills)}
	if s.Program != nil && s.Strategy != nil {
		ev, err := dr.Evaluate(s.Contract, s.Load, s.Strategy, s.Program, s.Events, s.Billing)
		if err != nil {
			return nil, err
		}
		res.DR = ev
	}
	return res, nil
}
