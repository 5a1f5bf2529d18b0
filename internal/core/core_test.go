package core

import (
	"math"
	"strings"
	"testing"
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

var t0 = time.Date(2016, time.March, 1, 0, 0, 0, 0, time.UTC)

func testContract() *contract.Contract {
	return &contract.Contract{
		Name:          "analysis-test",
		Tariffs:       []tariff.Tariff{tariff.MustNewFixed(0.08)},
		DemandCharges: []*demand.Charge{demand.MustNewCharge(14, demand.SinglePeak, 0, 0)},
	}
}

func peakyLoad() *timeseries.PowerSeries {
	samples := make([]units.Power, 96)
	for i := range samples {
		samples[i] = 8000
	}
	for i := 40; i < 44; i++ {
		samples[i] = 16000
	}
	return timeseries.MustNewPower(t0, 15*time.Minute, samples)
}

func TestAnalyze(t *testing.T) {
	a, err := Analyze(testContract(), peakyLoad(), contract.BillingInput{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Profile.FixedTariff || !a.Profile.DemandCharge {
		t.Errorf("profile = %+v", a.Profile)
	}
	if a.DemandShare <= 0 || a.DemandShare >= 1 {
		t.Errorf("demand share = %v", a.DemandShare)
	}
	// Load factor: mean 8333.33 / peak 16000 ≈ 0.52.
	if a.LoadFactor < 0.5 || a.LoadFactor > 0.55 {
		t.Errorf("load factor = %v", a.LoadFactor)
	}
	if a.EffectiveRate <= 0.08 {
		t.Errorf("all-in rate %v should exceed the energy rate", a.EffectiveRate)
	}
	if len(a.Incentives) != 1 || !strings.Contains(a.Incentives[0], "energy efficiency") {
		t.Errorf("incentives = %v", a.Incentives)
	}
}

func TestAnalyzeListsAllTariffIncentives(t *testing.T) {
	feed := timeseries.ConstantPrice(t0, time.Hour, 24, 0.05)
	c := &contract.Contract{
		Name: "multi",
		Tariffs: []tariff.Tariff{
			tariff.MustNewFixed(0.05),
			tariff.MustNewTOU(calendar.DayNight(8, 20, nil), map[string]units.EnergyPrice{"peak": 0.02, "offpeak": 0.01}),
			tariff.PassThrough(feed),
		},
	}
	a, err := Analyze(c, peakyLoad(), contract.BillingInput{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Incentives) != 3 {
		t.Errorf("incentives = %v", a.Incentives)
	}
}

func TestAnalyzeError(t *testing.T) {
	if _, err := Analyze(&contract.Contract{Name: "x"}, peakyLoad(), contract.BillingInput{}); err == nil {
		t.Error("invalid contract should fail")
	}
}

func TestPeakShave(t *testing.T) {
	load := peakyLoad()
	shaved, err := PeakShave(load, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	peak, _, _ := shaved.Peak()
	if peak != 12000 {
		t.Errorf("shaved peak = %v, want 12000", peak)
	}
	if _, err := PeakShave(load, 1.0); err == nil {
		t.Error("fraction 1 should fail")
	}
	if _, err := PeakShave(load, -0.1); err == nil {
		t.Error("negative fraction should fail")
	}
	empty := timeseries.MustNewPower(t0, time.Hour, nil)
	if _, err := PeakShave(empty, 0.1); err == nil {
		t.Error("empty load should fail")
	}
	// Zero fraction is identity.
	same, err := PeakShave(load, 0)
	if err != nil {
		t.Fatal(err)
	}
	p0, _, _ := same.Peak()
	if p0 != 16000 {
		t.Errorf("zero shave should keep the peak, got %v", p0)
	}
}

func TestPeakShaveSweepMonotone(t *testing.T) {
	fractions := []float64{0, 0.1, 0.2, 0.3}
	results, err := PeakShaveSweep(testContract(), peakyLoad(), fractions, contract.BillingInput{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].ShavedTotal > results[i-1].ShavedTotal {
			t.Errorf("deeper shaving must not raise the bill: %v then %v",
				results[i-1].ShavedTotal, results[i].ShavedTotal)
		}
		if results[i].EnergyLost < results[i-1].EnergyLost {
			t.Error("deeper shaving loses at least as much energy")
		}
	}
	if results[0].Savings != 0 {
		t.Errorf("zero shave savings = %v", results[0].Savings)
	}
	if results[3].Savings <= 0 {
		t.Error("30% shave should save on a single-peak demand charge")
	}
}

func TestPeakShaveSweepErrors(t *testing.T) {
	if _, err := PeakShaveSweep(&contract.Contract{Name: "x"}, peakyLoad(), []float64{0.1}, contract.BillingInput{}); err == nil {
		t.Error("invalid contract should fail")
	}
	if _, err := PeakShaveSweep(testContract(), peakyLoad(), []float64{2}, contract.BillingInput{}); err == nil {
		t.Error("bad fraction should fail")
	}
}

func TestBreakEvenIncentive(t *testing.T) {
	// Flat load so the cap does not touch the demand charge: the only
	// benefit is the incentive, the only cost is op cost — break-even
	// should land exactly at the op-cost rate.
	baseline := timeseries.ConstantPower(t0, 15*time.Minute, 96, 10000)
	c := &contract.Contract{
		Name:    "flat",
		Tariffs: []tariff.Tariff{tariff.MustNewFixed(0.08)},
	}
	events := []market.Event{{Start: t0.Add(10 * time.Hour), Duration: time.Hour, RequestedReduction: 2000}}
	strategy := &dr.CapStrategy{Cap: 8000, OpCostPerKWh: 0.30}

	be, err := BreakEvenIncentive(c, baseline, strategy, events, 2000, 0, 2.0, contract.BillingInput{})
	if err != nil {
		t.Fatal(err)
	}
	// Bill savings: curtailed 2 MWh × 0.08 = 160. Op cost: 2 MWh × 0.30
	// = 600. Incentive pays 2 MWh × x. Break-even: x = 0.22.
	if math.Abs(float64(be)-0.22) > 0.001 {
		t.Errorf("break-even = %v, want ≈0.22", be)
	}
}

func TestBreakEvenIncentiveBracketErrors(t *testing.T) {
	baseline := timeseries.ConstantPower(t0, 15*time.Minute, 96, 10000)
	c := &contract.Contract{Name: "flat", Tariffs: []tariff.Tariff{tariff.MustNewFixed(0.08)}}
	events := []market.Event{{Start: t0, Duration: time.Hour, RequestedReduction: 2000}}
	cheap := &dr.CapStrategy{Cap: 8000, OpCostPerKWh: 0} // free strategy: pays at any incentive
	if _, err := BreakEvenIncentive(c, baseline, cheap, events, 2000, 0.01, 1, contract.BillingInput{}); err == nil {
		t.Error("already-profitable lo should error")
	}
	costly := &dr.CapStrategy{Cap: 8000, OpCostPerKWh: 100}
	if _, err := BreakEvenIncentive(c, baseline, costly, events, 2000, 0, 0.5, contract.BillingInput{}); err == nil {
		t.Error("never-profitable hi should error")
	}
	if _, err := BreakEvenIncentive(c, baseline, cheap, events, 2000, 1, 0.5, contract.BillingInput{}); err == nil {
		t.Error("inverted bracket should error")
	}
}

func TestScenarioRun(t *testing.T) {
	// Two months of flat load with one spike per month.
	samples := make([]units.Power, (31+30)*96)
	for i := range samples {
		samples[i] = 8000
	}
	samples[500] = 15000
	samples[31*96+700] = 12000
	load := timeseries.MustNewPower(t0, 15*time.Minute, samples)

	s := &Scenario{
		Contract: testContract(),
		Load:     load,
		Program: &market.Program{
			Kind: market.EmergencyDR, CommittedReduction: 2000, EnergyIncentive: 0.4,
		},
		Strategy: &dr.ShedStrategy{Fraction: 0.2, OpCostPerKWh: 0.05},
		Events: []market.Event{
			{Start: t0.Add(125 * time.Hour), Duration: time.Hour, RequestedReduction: 2000},
		},
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bills) != 2 {
		t.Fatalf("bills = %d, want 2 months", len(res.Bills))
	}
	if res.Total != res.Bills[0].Total+res.Bills[1].Total {
		t.Error("total mismatch")
	}
	if res.DR == nil || res.DR.Settlement == nil {
		t.Fatal("DR evaluation missing")
	}
}

func TestScenarioValidation(t *testing.T) {
	if _, err := (&Scenario{}).Run(); err == nil {
		t.Error("empty scenario should fail")
	}
	if _, err := (&Scenario{Contract: testContract()}).Run(); err == nil {
		t.Error("missing load should fail")
	}
}

func TestScenarioWithoutDR(t *testing.T) {
	s := &Scenario{Contract: testContract(), Load: peakyLoad()}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DR != nil {
		t.Error("no program/strategy, no DR evaluation")
	}
}
