package advisor

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/contract"
	"repro/internal/demand"
	"repro/internal/hpc"
	"repro/internal/tariff"
	"repro/internal/timeseries"
	"repro/internal/units"
)

var t0 = time.Date(2016, time.January, 1, 0, 0, 0, 0, time.UTC)

func refLoad(t *testing.T, ratio float64) *timeseries.PowerSeries {
	t.Helper()
	load, err := hpc.SyntheticFacilityLoad(hpc.LoadProfileConfig{
		Start: t0, Span: 90 * 24 * time.Hour, Interval: time.Hour,
		Base: 10 * units.Megawatt, PeakToAverage: ratio, NoiseSigma: 0.02, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return load
}

func candidates() []Candidate {
	return []Candidate{
		{
			Name: "current: fixed + demand charge",
			Contract: &contract.Contract{
				Name:          "current",
				Tariffs:       []tariff.Tariff{tariff.MustNewFixed(0.065)},
				DemandCharges: []*demand.Charge{demand.SimpleCharge(12)},
			},
		},
		{
			Name: "CSCS-style: flat, no demand charge",
			Contract: &contract.Contract{
				Name:    "tendered",
				Tariffs: []tariff.Tariff{tariff.MustNewFixed(0.075)},
			},
		},
		{
			Name: "cheap energy, heavy demand charge",
			Contract: &contract.Contract{
				Name:          "kw-heavy",
				Tariffs:       []tariff.Tariff{tariff.MustNewFixed(0.040)},
				DemandCharges: []*demand.Charge{demand.SimpleCharge(20)},
			},
		},
	}
}

func TestRankOrdersByCost(t *testing.T) {
	ranked, err := Rank(candidates(), refLoad(t, 1.8), contract.BillingInput{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 3 {
		t.Fatalf("ranked = %d", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Annual < ranked[i-1].Annual {
			t.Error("ranking must ascend")
		}
	}
	if ranked[0].DeltaVsBest != 0 {
		t.Error("best candidate has zero delta")
	}
	if ranked[2].DeltaVsBest <= 0 {
		t.Error("worst candidate has positive delta")
	}
}

func TestRankValidation(t *testing.T) {
	if _, err := Rank(nil, refLoad(t, 1.5), contract.BillingInput{}); err == nil {
		t.Error("no candidates should fail")
	}
	bad := []Candidate{{Name: "x", Contract: &contract.Contract{Name: "empty"}}}
	if _, err := Rank(bad, refLoad(t, 1.5), contract.BillingInput{}); err == nil {
		t.Error("invalid candidate should fail")
	}
}

func TestPeakinessFlipsTheWinner(t *testing.T) {
	// Flat site: the cheap-energy/heavy-demand-charge candidate wins.
	// Peaky site: the demand-charge-free structure wins. This is the
	// paper's CSCS logic made mechanical.
	flat, err := Rank(candidates(), refLoad(t, 1.0), contract.BillingInput{})
	if err != nil {
		t.Fatal(err)
	}
	peaky, err := Rank(candidates(), refLoad(t, 2.5), contract.BillingInput{})
	if err != nil {
		t.Fatal(err)
	}
	if flat[0].Candidate.Name != "cheap energy, heavy demand charge" {
		t.Errorf("flat winner = %q, expected the kW-heavy discount structure", flat[0].Candidate.Name)
	}
	if peaky[0].Candidate.Name != "CSCS-style: flat, no demand charge" {
		t.Errorf("peaky winner = %q, expected the demand-charge-free structure", peaky[0].Candidate.Name)
	}
}

func TestFitPowerband(t *testing.T) {
	load := refLoad(t, 1.5)
	band, err := FitPowerband(load, 0.40, units.CurrencyUnits(1000))
	if err != nil {
		t.Fatal(err)
	}
	if cost := bandCost(t, band, load); cost > units.CurrencyUnits(1000) {
		t.Errorf("fitted band cost %v exceeds budget", cost)
	}
	// The band must be meaningfully tighter than the peak when budget
	// allows some violations.
	peak, _, _ := load.Peak()
	if band.Upper > peak {
		t.Errorf("band upper %v above peak %v", band.Upper, peak)
	}
	// Zero budget: band must cost exactly zero (sits at the peak).
	tight, err := FitPowerband(load, 0.40, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost := bandCost(t, tight, load); cost != 0 {
		t.Errorf("zero-budget band cost = %v", cost)
	}
}

// bandCost bills the load as one period through the band's kernel.
func bandCost(t *testing.T, band *demand.Powerband, load *timeseries.PowerSeries) units.Money {
	t.Helper()
	ev, err := billing.NewEvaluator(band)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ev.EvaluatePeriod(load, billing.PeriodContext{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Total
}

func TestFitPowerbandValidation(t *testing.T) {
	load := refLoad(t, 1.5)
	empty := timeseries.MustNewPower(t0, time.Hour, nil)
	if _, err := FitPowerband(empty, 0.4, 0); err == nil {
		t.Error("empty load should fail")
	}
	if _, err := FitPowerband(load, -1, 0); err == nil {
		t.Error("negative penalty should fail")
	}
	if _, err := FitPowerband(load, 0.4, -1); err == nil {
		t.Error("negative budget should fail")
	}
	zeros := timeseries.ConstantPower(t0, time.Hour, 10, 0)
	if _, err := FitPowerband(zeros, 0.4, 0); err == nil {
		t.Error("all-zero load should fail")
	}
}

func TestAdvise(t *testing.T) {
	load := refLoad(t, 2.5)
	advice, err := Advise("current: fixed + demand charge", candidates(), load,
		contract.BillingInput{}, units.CurrencyUnits(10000))
	if err != nil {
		t.Fatal(err)
	}
	if advice.AnnualSaving < 0 {
		t.Error("saving cannot be negative")
	}
	if advice.ShouldRenegotiate && !strings.Contains(advice.String(), "renegotiate") {
		t.Error("advice text should match the decision")
	}
	if !advice.ShouldRenegotiate && !strings.Contains(advice.String(), "keep") {
		t.Error("advice text should match the decision")
	}
	// Unknown current name errors.
	if _, err := Advise("nope", candidates(), load, contract.BillingInput{}, 0); err == nil {
		t.Error("unknown current should fail")
	}
}

func TestAdviseMaterialityThreshold(t *testing.T) {
	load := refLoad(t, 2.5)
	// With an absurd materiality threshold nothing justifies the effort.
	advice, err := Advise("current: fixed + demand charge", candidates(), load,
		contract.BillingInput{}, units.CurrencyUnits(1_000_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if advice.ShouldRenegotiate {
		t.Error("billion-unit materiality should suppress renegotiation")
	}
	if math.Signbit(advice.AnnualSaving.Float()) {
		t.Error("saving must be non-negative")
	}
}
