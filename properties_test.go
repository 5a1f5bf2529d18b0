package repro

// Cross-cutting property tests: invariants that span subsystem
// boundaries and therefore live at the top of the module.

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/calendar"
	"repro/internal/contract"
	"repro/internal/demand"
	"repro/internal/dr"
	"repro/internal/market"
	"repro/internal/tariff"
	"repro/internal/timeseries"
	"repro/internal/units"
)

var propStart = time.Date(2016, time.March, 7, 0, 0, 0, 0, time.UTC)

func propSeries(raw []uint16) *timeseries.PowerSeries {
	samples := make([]units.Power, len(raw))
	for i, v := range raw {
		samples[i] = units.Power(v % 20000)
	}
	return timeseries.MustNewPower(propStart, 15*time.Minute, samples)
}

// Property: for any load and any contract of (fixed tariff + demand
// charge + upper powerband), scaling the load down never raises any
// component of the bill.
func TestQuickBillMonotoneInLoad(t *testing.T) {
	band, err := demand.NewUpperPowerband(15*units.Megawatt, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	c := &contract.Contract{
		Name:          "prop",
		Tariffs:       []tariff.Tariff{tariff.MustNewFixed(0.07)},
		DemandCharges: []*demand.Charge{demand.SimpleCharge(12)},
		Powerbands:    []*demand.Powerband{band},
	}
	f := func(raw []uint16, scalePct uint8) bool {
		if len(raw) == 0 {
			return true
		}
		load := propSeries(raw)
		scale := float64(scalePct%100) / 100 // [0, 1)
		smaller := load.Scale(scale)
		b1, err1 := contract.ComputeBill(c, load, contract.BillingInput{})
		b2, err2 := contract.ComputeBill(c, smaller, contract.BillingInput{})
		if err1 != nil || err2 != nil {
			return false
		}
		for _, comp := range contract.AllComponents() {
			if b2.ComponentTotal(comp) > b1.ComponentTotal(comp) {
				return false
			}
		}
		return b2.Total <= b1.Total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: a rider is a second tariff entry. A contract whose tariffs
// are [a, b], a fixed rate and a TOU service charge on top of it (the
// Sites 1 and 9 configuration), bills exactly a.Cost(load) and
// b.Cost(load) on its two tariff lines, and their sum as its total.
func TestQuickRiderEntriesBillAdditively(t *testing.T) {
	a := tariff.MustNewFixed(0.07)
	b := tariff.MustNewTOU(calendar.SeasonalDayNight(8, 20, nil), map[string]units.EnergyPrice{
		"summer-peak": 0.04, "peak": 0.03, "offpeak": 0.01,
	})
	c := &contract.Contract{Name: "rider", Tariffs: []tariff.Tariff{a, b}}
	f := func(raw []uint16, offsetH uint16) bool {
		if len(raw) == 0 {
			return true
		}
		start := propStart.Add(time.Duration(offsetH%8784) * time.Hour)
		load := timeseries.MustNewPower(start, 15*time.Minute, propSeries(raw).Samples())
		bill, err := contract.ComputeBill(c, load, contract.BillingInput{})
		if err != nil || len(bill.Lines) != 2 {
			return false
		}
		return bill.Lines[0].Amount == a.Cost(load) && bill.Lines[1].Amount == b.Cost(load) &&
			bill.Total == a.Cost(load)+b.Cost(load)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every DR strategy keeps the load non-negative and never
// increases energy during event windows.
func TestQuickStrategiesRespectEventWindows(t *testing.T) {
	strategies := []dr.Strategy{
		&dr.CapStrategy{Cap: 8000},
		&dr.ShedStrategy{Fraction: 0.3},
		&dr.GenStrategy{Capacity: 3000},
	}
	f := func(raw []uint16, startQ uint8) bool {
		if len(raw) < 8 {
			return true
		}
		load := propSeries(raw)
		at := int(startQ) % (len(raw) - 4)
		ev := []market.Event{{
			Start: load.TimeAt(at), Duration: time.Hour, RequestedReduction: 2000,
		}}
		evEnd := ev[0].Start.Add(ev[0].Duration)
		for _, s := range strategies {
			resp, err := s.Respond(load, ev)
			if err != nil {
				return false
			}
			mn, err := resp.Load.Min()
			if err != nil || mn < 0 {
				return false
			}
			for i := 0; i < load.Len(); i++ {
				ts := load.TimeAt(i)
				inside := !ts.Before(ev[0].Start) && ts.Before(evEnd)
				if inside && resp.Load.At(i) > load.At(i)+1e-9 {
					return false // strategies must not raise in-event load
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: classification is stable under component re-ordering and
// profile counts match the contract's actual component lists.
func TestQuickClassificationConsistent(t *testing.T) {
	f := func(nDC, nPB uint8, hasFixed bool) bool {
		c := &contract.Contract{Name: "q", Tariffs: []tariff.Tariff{tariff.MustNewFixed(0.05)}}
		for i := 0; i < int(nDC%3); i++ {
			c.DemandCharges = append(c.DemandCharges, demand.SimpleCharge(10))
		}
		for i := 0; i < int(nPB%3); i++ {
			band, err := demand.NewUpperPowerband(10000, 1)
			if err != nil {
				return false
			}
			c.Powerbands = append(c.Powerbands, band)
		}
		p := contract.Classify(c)
		if p.DemandCharge != (len(c.DemandCharges) > 0) {
			return false
		}
		if p.Powerband != (len(c.Powerbands) > 0) {
			return false
		}
		return p.FixedTariff
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: settlement of any load against itself credits nothing.
func TestQuickSelfSettlementIsZero(t *testing.T) {
	p := &market.Program{Kind: market.EmergencyDR, CommittedReduction: 2000, EnergyIncentive: 0.5}
	f := func(raw []uint16) bool {
		if len(raw) < 8 {
			return true
		}
		load := propSeries(raw)
		ev := []market.Event{{Start: load.TimeAt(2), Duration: time.Hour, RequestedReduction: 2000}}
		s, err := p.Settle(load, load, ev)
		if err != nil {
			return false
		}
		return s.CurtailedEnergy == 0 && s.EnergyPayment == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: bill demand share stays in [0, 1] for non-degenerate loads.
func TestQuickDemandShareBounded(t *testing.T) {
	c := &contract.Contract{
		Name:          "share",
		Tariffs:       []tariff.Tariff{tariff.MustNewFixed(0.06)},
		DemandCharges: []*demand.Charge{demand.SimpleCharge(13)},
	}
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		load := propSeries(raw)
		bill, err := contract.ComputeBill(c, load, contract.BillingInput{})
		if err != nil {
			return false
		}
		share := bill.DemandShare()
		return share >= 0 && share <= 1 && !math.IsNaN(share)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
