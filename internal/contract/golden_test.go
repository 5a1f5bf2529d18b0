package contract

// Golden equivalence: the single-pass Engine must reproduce the legacy
// multi-pass billing path exactly — same line items, same quantities,
// amounts identical to the micro-currency unit, bit-identical energy
// and peak — on every example contract shipped with the repo plus
// contracts exercising the remaining tariff kinds.

import (
	"math"
	"testing"
	"time"

	"repro/internal/calendar"
	"repro/internal/demand"
	"repro/internal/hpc"
	"repro/internal/tariff"
	"repro/internal/timeseries"
	"repro/internal/units"
)

func goldenLoad(t *testing.T, cfg hpc.LoadProfileConfig) *timeseries.PowerSeries {
	t.Helper()
	load, err := hpc.SyntheticFacilityLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return load
}

// assertBillsIdentical compares every observable field of two bills.
func assertBillsIdentical(t *testing.T, label string, got, want *Bill) {
	t.Helper()
	if got.Contract != want.Contract {
		t.Errorf("%s: contract %q != %q", label, got.Contract, want.Contract)
	}
	if !got.PeriodStart.Equal(want.PeriodStart) || !got.PeriodEnd.Equal(want.PeriodEnd) {
		t.Errorf("%s: period %v–%v != %v–%v", label,
			got.PeriodStart, got.PeriodEnd, want.PeriodStart, want.PeriodEnd)
	}
	if float64(got.Energy) != float64(want.Energy) {
		t.Errorf("%s: energy %v != %v (diff %g)", label, got.Energy, want.Energy,
			math.Abs(float64(got.Energy)-float64(want.Energy)))
	}
	if got.PeakDemand != want.PeakDemand {
		t.Errorf("%s: peak %v != %v", label, got.PeakDemand, want.PeakDemand)
	}
	if len(got.Lines) != len(want.Lines) {
		t.Fatalf("%s: %d lines != %d", label, len(got.Lines), len(want.Lines))
	}
	for i := range got.Lines {
		g, w := got.Lines[i], want.Lines[i]
		if g.Component != w.Component {
			t.Errorf("%s line %d: component %v != %v", label, i, g.Component, w.Component)
		}
		if g.Description != w.Description {
			t.Errorf("%s line %d: description %q != %q", label, i, g.Description, w.Description)
		}
		if g.Quantity != w.Quantity {
			t.Errorf("%s line %d: quantity %q != %q", label, i, g.Quantity, w.Quantity)
		}
		if g.Amount != w.Amount {
			t.Errorf("%s line %d (%s): amount %v != %v (off by %d micro-units)",
				label, i, g.Description, g.Amount, w.Amount, int64(g.Amount-w.Amount))
		}
	}
	if got.Total != want.Total {
		t.Errorf("%s: total %v != %v", label, got.Total, want.Total)
	}
}

// goldenCase is one contract + load + billing input to cross-check.
type goldenCase struct {
	name string
	c    *Contract
	load *timeseries.PowerSeries
	in   BillingInput
}

func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	march := time.Date(2016, time.March, 1, 0, 0, 0, 0, time.UTC)
	september := time.Date(2016, time.September, 1, 0, 0, 0, 0, time.UTC)

	// examples/quickstart: fixed tariff + 3-peak demand charge + upper
	// powerband on a month of 12 MW load.
	quickBand, err := demand.NewUpperPowerband(18*units.Megawatt, 0.40)
	if err != nil {
		t.Fatal(err)
	}
	quickstart := goldenCase{
		name: "quickstart",
		c: &Contract{
			Name:          "quickstart-site",
			Tariffs:       []tariff.Tariff{tariff.MustNewFixed(0.085)},
			DemandCharges: []*demand.Charge{demand.SimpleCharge(12)},
			Powerbands:    []*demand.Powerband{quickBand},
		},
		load: goldenLoad(t, hpc.LoadProfileConfig{
			Start: march, Span: 30 * 24 * time.Hour, Interval: 15 * time.Minute,
			Base: 12 * units.Megawatt, PeakToAverage: 1.5, NoiseSigma: 0.02, Seed: 1,
		}),
	}

	// examples/demandcharge: fixed tariff + 3-peak charge on a peaky month.
	demandcharge := goldenCase{
		name: "demandcharge",
		c: &Contract{
			Name:          "industrial-style",
			Tariffs:       []tariff.Tariff{tariff.MustNewFixed(0.06)},
			DemandCharges: []*demand.Charge{demand.SimpleCharge(13)},
		},
		load: goldenLoad(t, hpc.LoadProfileConfig{
			Start: march, Span: 30 * 24 * time.Hour, Interval: 15 * time.Minute,
			Base: 10 * units.Megawatt, PeakToAverage: 2.5, NoiseSigma: 0.02, Seed: 3,
		}),
	}

	// examples/yearinlife: fixed tariff + ratchet charge on a full year.
	yearinlife := goldenCase{
		name: "yearinlife",
		c: &Contract{
			Name:          "annual-contract",
			Tariffs:       []tariff.Tariff{tariff.MustNewFixed(0.065)},
			DemandCharges: []*demand.Charge{demand.MustNewCharge(12, demand.Ratchet, 0, 0.8)},
		},
		load: goldenLoad(t, hpc.LoadProfileConfig{
			Start: time.Date(2016, time.January, 1, 0, 0, 0, 0, time.UTC),
			Span:  365 * 24 * time.Hour, Interval: 15 * time.Minute,
			Base: 12 * units.Megawatt, PeakToAverage: 1.5, NoiseSigma: 0.02,
			DiurnalSwing: 0.03, Seed: 2016,
		}),
	}

	// examples/contingency: fixed tariff + demand charge + emergency
	// obligation with declared events.
	contingency := goldenCase{
		name: "contingency",
		c: &Contract{
			Name:          "plan-site",
			Tariffs:       []tariff.Tariff{tariff.MustNewFixed(0.06)},
			DemandCharges: []*demand.Charge{demand.SimpleCharge(12)},
			Emergencies: []*EmergencyObligation{{
				Name: "regional emergency DR", Cap: 9 * units.Megawatt, Penalty: 2.0,
			}},
		},
		load: goldenLoad(t, hpc.LoadProfileConfig{
			Start: september, Span: 30 * 24 * time.Hour, Interval: 15 * time.Minute,
			Base: 12 * units.Megawatt, PeakToAverage: 1.3, NoiseSigma: 0.02, Seed: 11,
		}),
		in: BillingInput{Events: []EmergencyEvent{
			{Start: september.Add(5*24*time.Hour + 14*time.Hour), Duration: 2 * time.Hour},
			{Start: september.Add(19*24*time.Hour + 16*time.Hour), Duration: time.Hour},
		}},
	}

	// All remaining tariff kinds in one contract: TOU + dynamic feed +
	// a stacked base+rider, plus a two-sided powerband and flat fees.
	kitchenLoad := goldenLoad(t, hpc.LoadProfileConfig{
		Start: march, Span: 30 * 24 * time.Hour, Interval: 15 * time.Minute,
		Base: 12 * units.Megawatt, PeakToAverage: 1.8, NoiseSigma: 0.03, Seed: 21,
	})
	hours := 30 * 24
	prices := make([]units.EnergyPrice, hours)
	for i := range prices {
		prices[i] = units.EnergyPrice(0.03 + 0.02*math.Sin(float64(i)/7))
	}
	feed := timeseries.MustNewPrice(march, time.Hour, prices)
	kitchenSink := goldenCase{
		name: "kitchen-sink",
		c: &Contract{
			Name: "all-tariff-kinds",
			Tariffs: []tariff.Tariff{
				tariff.MustNewTOU(calendar.SeasonalDayNight(8, 20, nil), map[string]units.EnergyPrice{
					"summer-peak": 0.04, "peak": 0.02, "offpeak": 0.005,
				}),
				tariff.MustNewDynamic(feed, 1.1, 0.012),
				tariff.MustNewFixed(0.05), // with the next entry, a dynamic rider on a fixed rate
				tariff.MustNewDynamic(feed, 0.4, 0),
			},
			DemandCharges: []*demand.Charge{demand.MustNewCharge(11, demand.SinglePeak, 0, 0)},
			Powerbands:    []*demand.Powerband{demand.MustNewPowerband(6*units.Megawatt, 19*units.Megawatt, 0.2, 0.6)},
			Fees: []FixedFee{
				{Name: "metering", Amount: units.CurrencyUnits(500)},
				{Name: "grid levy", Amount: units.CurrencyUnits(1250)},
			},
		},
		load: kitchenLoad,
		in:   BillingInput{HistoricalPeak: 21 * units.Megawatt},
	}

	return []goldenCase{quickstart, demandcharge, yearinlife, contingency, kitchenSink}
}

// TestGoldenEngineMatchesLegacyBill cross-checks single-period billing.
func TestGoldenEngineMatchesLegacyBill(t *testing.T) {
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			want, err := ComputeBillLegacy(tc.c, tc.load, tc.in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ComputeBill(tc.c, tc.load, tc.in)
			if err != nil {
				t.Fatal(err)
			}
			assertBillsIdentical(t, tc.name, got, want)
		})
	}
}

// TestGoldenEngineMatchesLegacyMonths cross-checks the parallel monthly
// path — including the ratchet threading — against the sequential loop.
func TestGoldenEngineMatchesLegacyMonths(t *testing.T) {
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			want, err := BillMonthsLegacy(tc.c, tc.load, tc.in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := BillMonths(tc.c, tc.load, tc.in)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d months != %d", len(got), len(want))
			}
			for i := range got {
				assertBillsIdentical(t, got[i].PeriodStart.Format("2006-01"), got[i], want[i])
			}
		})
	}
}

// TestGoldenWorkerCountsAgree pins the parallel evaluator against the
// sequential one for several pool sizes.
func TestGoldenWorkerCountsAgree(t *testing.T) {
	tc := goldenCases(t)[2] // yearinlife: 12 months, ratchet dependency
	eng, err := NewEngine(tc.c)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.BillMonthsWorkers(tc.load, tc.in, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 8, 64} {
		got, err := eng.BillMonthsWorkers(tc.load, tc.in, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d months != %d", workers, len(got), len(want))
		}
		for i := range got {
			assertBillsIdentical(t, got[i].PeriodStart.Format("2006-01"), got[i], want[i])
		}
	}
}
