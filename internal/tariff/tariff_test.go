package tariff

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/calendar"
	"repro/internal/timeseries"
	"repro/internal/units"
)

var t0 = time.Date(2016, time.July, 4, 0, 0, 0, 0, time.UTC) // a Monday

func flatLoad(n int, p units.Power) *timeseries.PowerSeries {
	return timeseries.ConstantPower(t0, time.Hour, n, p)
}

func TestKindStringAndIncentive(t *testing.T) {
	if Fixed.String() != "fixed" || TimeOfUse.String() != "time-of-use" || Dynamic.String() != "dynamic" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() == "" || Kind(9).Incentive() != "unknown" {
		t.Error("unknown kind handling wrong")
	}
	for _, k := range []Kind{Fixed, TimeOfUse, Dynamic} {
		if k.Incentive() == "" || k.Incentive() == "unknown" {
			t.Errorf("%v should have a documented incentive", k)
		}
	}
}

func TestFixedTariff(t *testing.T) {
	ft := MustNewFixed(0.10)
	if ft.Kind() != Fixed {
		t.Error("kind")
	}
	if ft.PriceAt(t0) != 0.10 || ft.PriceAt(t0.Add(1000*time.Hour)) != 0.10 {
		t.Error("fixed price should not vary")
	}
	// 1 MW for 24 h at 0.10/kWh = 2400.
	got := ft.Cost(flatLoad(24, 1000))
	if want := units.CurrencyUnits(2400); got != want {
		t.Errorf("Cost = %v, want %v", got, want)
	}
	if !strings.Contains(ft.Describe(), "fixed") {
		t.Error("describe")
	}
}

func TestNewFixedRejectsNegative(t *testing.T) {
	if _, err := NewFixed(-0.01); err == nil {
		t.Error("negative rate should fail")
	}
}

func TestMustNewFixedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("should panic")
		}
	}()
	MustNewFixed(-1)
}

func newDayNightTOU(t *testing.T) *TOUTariff {
	t.Helper()
	sched := calendar.DayNight(8, 20, nil)
	return MustNewTOU(sched, map[string]units.EnergyPrice{
		"peak":    0.20,
		"offpeak": 0.05,
	})
}

func TestTOUTariff(t *testing.T) {
	tou := newDayNightTOU(t)
	if tou.Kind() != TimeOfUse {
		t.Error("kind")
	}
	// Monday noon is peak; Monday 23:00 offpeak.
	if got := tou.PriceAt(t0.Add(12 * time.Hour)); got != 0.20 {
		t.Errorf("peak price = %v", got)
	}
	if got := tou.PriceAt(t0.Add(23 * time.Hour)); got != 0.05 {
		t.Errorf("offpeak price = %v", got)
	}
	// Full Monday at 1 MW: 12 peak hours ×0.20×1000 + 12 offpeak ×0.05×1000.
	got := tou.Cost(flatLoad(24, 1000))
	want := units.CurrencyUnits(12*200 + 12*50)
	if got != want {
		t.Errorf("Cost = %v, want %v", got, want)
	}
}

func TestTOUEnergyByBand(t *testing.T) {
	tou := newDayNightTOU(t)
	by := tou.EnergyByBand(flatLoad(24, 1000))
	if math.Abs(by["peak"].MWh()-12) > 1e-9 || math.Abs(by["offpeak"].MWh()-12) > 1e-9 {
		t.Errorf("EnergyByBand = %v", by)
	}
}

func TestTOUBandsAndDescribe(t *testing.T) {
	tou := newDayNightTOU(t)
	bands := tou.Bands()
	if len(bands) != 2 || bands[0].Label != "offpeak" || bands[1].Label != "peak" {
		t.Errorf("Bands = %v", bands)
	}
	if !strings.Contains(tou.Describe(), "time-of-use") {
		t.Error("describe")
	}
}

func TestNewTOUValidation(t *testing.T) {
	sched := calendar.DayNight(8, 20, nil)
	if _, err := NewTOU(nil, nil); err == nil {
		t.Error("nil schedule should fail")
	}
	if _, err := NewTOU(sched, map[string]units.EnergyPrice{"peak": 0.2}); err == nil {
		t.Error("missing band rate should fail")
	}
	if _, err := NewTOU(sched, map[string]units.EnergyPrice{"peak": 0.2, "offpeak": -0.1}); err == nil {
		t.Error("negative band rate should fail")
	}
}

func TestTOURatesAreCopied(t *testing.T) {
	sched := calendar.DayNight(8, 20, nil)
	rates := map[string]units.EnergyPrice{"peak": 0.20, "offpeak": 0.05}
	tou := MustNewTOU(sched, rates)
	rates["peak"] = 99
	if got := tou.PriceAt(t0.Add(12 * time.Hour)); got != 0.20 {
		t.Error("rates map must be copied at construction")
	}
}

func TestDynamicTariff(t *testing.T) {
	feed := timeseries.MustNewPrice(t0, time.Hour, []units.EnergyPrice{0.10, 0.50})
	dt := PassThrough(feed)
	if dt.Kind() != Dynamic {
		t.Error("kind")
	}
	if got := dt.PriceAt(t0.Add(90 * time.Minute)); got != 0.50 {
		t.Errorf("PriceAt = %v", got)
	}
	// 1 MW for 2 h: 100 + 500.
	got := dt.Cost(flatLoad(2, 1000))
	if want := units.CurrencyUnits(600); got != want {
		t.Errorf("Cost = %v, want %v", got, want)
	}
	if dt.Feed() != feed {
		t.Error("Feed accessor")
	}
	if !strings.Contains(dt.Describe(), "dynamic") {
		t.Error("describe")
	}
}

func TestDynamicMarkup(t *testing.T) {
	feed := timeseries.ConstantPrice(t0, time.Hour, 4, 0.10)
	dt := MustNewDynamic(feed, 1.5, 0.02)
	if got := dt.PriceAt(t0); math.Abs(float64(got)-0.17) > 1e-12 {
		t.Errorf("marked-up price = %v, want 0.17", got)
	}
}

func TestNewDynamicValidation(t *testing.T) {
	feed := timeseries.ConstantPrice(t0, time.Hour, 1, 0.10)
	if _, err := NewDynamic(nil, 1, 0); err == nil {
		t.Error("nil feed should fail")
	}
	if _, err := NewDynamic(feed, 0, 0); err == nil {
		t.Error("zero multiplier should fail")
	}
	if _, err := NewDynamic(feed, -1, 0); err == nil {
		t.Error("negative multiplier should fail")
	}
}

func TestMustNewDynamicPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("should panic")
		}
	}()
	MustNewDynamic(nil, 1, 0)
}

// Property: for any load, fixed-tariff cost equals rate × total energy
// within one micro-unit.
func TestQuickFixedCostMatchesEnergy(t *testing.T) {
	f := func(raw []uint16, rateMilli uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]units.Power, len(raw))
		for i, v := range raw {
			samples[i] = units.Power(v)
		}
		load := timeseries.MustNewPower(t0, time.Hour, samples)
		rate := units.EnergyPrice(float64(rateMilli%500) / 1000)
		ft := MustNewFixed(rate)
		got := ft.Cost(load)
		want := rate.Cost(load.Energy())
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a TOU tariff's cost is bounded by pricing the whole load at
// the min and max band rates.
func TestQuickTOUCostBounds(t *testing.T) {
	tou := newDayNightTOU(t)
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]units.Power, len(raw))
		for i, v := range raw {
			samples[i] = units.Power(v)
		}
		load := timeseries.MustNewPower(t0, time.Hour, samples)
		cost := tou.Cost(load)
		lo := units.EnergyPrice(0.05).Cost(load.Energy())
		hi := units.EnergyPrice(0.20).Cost(load.Energy())
		return cost >= lo-units.Money(load.Len()) && cost <= hi+units.Money(load.Len())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: TOU EnergyByBand totals the load's energy.
func TestQuickEnergyByBandTotal(t *testing.T) {
	tou := newDayNightTOU(t)
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]units.Power, len(raw))
		for i, v := range raw {
			samples[i] = units.Power(v)
		}
		load := timeseries.MustNewPower(t0, time.Hour, samples)
		var sum units.Energy
		for _, e := range tou.EnergyByBand(load) {
			sum += e
		}
		return math.Abs(float64(sum-load.Energy())) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkTOUCostYear(b *testing.B) {
	tou := MustNewTOU(calendar.SeasonalDayNight(8, 20, nil), map[string]units.EnergyPrice{
		"summer-peak": 0.25, "peak": 0.18, "offpeak": 0.06,
	})
	load := timeseries.ConstantPower(t0, 15*time.Minute, 35040, 12*units.Megawatt)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tou.Cost(load)
	}
}
