package demand

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/billing"
	"repro/internal/timeseries"
	"repro/internal/units"
)

var t0 = time.Date(2016, time.March, 1, 0, 0, 0, 0, time.UTC)

func load(t *testing.T, kw ...float64) *timeseries.PowerSeries {
	t.Helper()
	samples := make([]units.Power, len(kw))
	for i, v := range kw {
		samples[i] = units.Power(v)
	}
	return timeseries.MustNewPower(t0, 15*time.Minute, samples)
}

// bill prices l as one period through the component's compiled kernel,
// with no historical peak, and returns the component's line amount.
func bill(t *testing.T, p billing.LineItemProducer, l *timeseries.PowerSeries) units.Money {
	t.Helper()
	ev, err := billing.NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ev.EvaluatePeriod(l, billing.PeriodContext{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Lines[0].Amount
}

func TestMethodString(t *testing.T) {
	if SinglePeak.String() != "single-peak" || NPeakAverage.String() != "n-peak-average" || Ratchet.String() != "ratchet" {
		t.Error("method names wrong")
	}
	if Method(9).String() == "" {
		t.Error("unknown method should format")
	}
}

func TestNewChargeValidation(t *testing.T) {
	if _, err := NewCharge(-1, SinglePeak, 0, 0); err == nil {
		t.Error("negative price should fail")
	}
	if _, err := NewCharge(10, NPeakAverage, 0, 0); err == nil {
		t.Error("NPeakAverage without N should fail")
	}
	if _, err := NewCharge(10, Ratchet, 0, 0); err == nil {
		t.Error("Ratchet without fraction should fail")
	}
	if _, err := NewCharge(10, Ratchet, 0, 1.5); err == nil {
		t.Error("fraction > 1 should fail")
	}
	if _, err := NewCharge(10, Method(42), 0, 0); err == nil {
		t.Error("unknown method should fail")
	}
	if _, err := NewCharge(10, Ratchet, 0, 0.8); err != nil {
		t.Errorf("valid ratchet should pass: %v", err)
	}
}

func TestMustNewChargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("should panic")
		}
	}()
	MustNewCharge(-1, SinglePeak, 0, 0)
}

func TestSinglePeakBilling(t *testing.T) {
	c := MustNewCharge(12, SinglePeak, 0, 0)
	l := load(t, 10000, 15000, 12000)
	if got := c.BilledDemand(l, 0); got != 15000 {
		t.Errorf("billed = %v", got)
	}
	if got, want := bill(t, c, l), units.CurrencyUnits(180000); got != want {
		t.Errorf("cost = %v, want %v", got, want)
	}
}

func TestPaperThreePeakExample(t *testing.T) {
	// The paper: "three 15 MW peaks in a billing period" billed on those
	// peaks; next period "the peaks are 12 MW instead" → charges fall.
	c := SimpleCharge(10)
	p1 := load(t, 8000, 15000, 9000, 15000, 7000, 15000)
	p2 := load(t, 8000, 12000, 9000, 12000, 7000, 12000)
	b1 := c.BilledDemand(p1, 0)
	b2 := c.BilledDemand(p2, 0)
	if b1 != 15000 || b2 != 12000 {
		t.Errorf("billed = %v then %v; want 15 MW then 12 MW", b1, b2)
	}
	if bill(t, c, p2) >= bill(t, c, p1) {
		t.Error("demand charges must fall when peaks fall")
	}
}

func TestNPeakAveragesDistinctPeaks(t *testing.T) {
	c := MustNewCharge(10, NPeakAverage, 3, 0)
	l := load(t, 9000, 12000, 15000) // top-3 = all
	if got := c.BilledDemand(l, 0); got != 12000 {
		t.Errorf("billed = %v, want mean 12000", got)
	}
	// With more samples than N, only top-3 count.
	l2 := load(t, 1000, 9000, 12000, 15000, 2000)
	if got := c.BilledDemand(l2, 0); got != 12000 {
		t.Errorf("billed = %v, want 12000", got)
	}
}

func TestNPeakDefaultsTo3(t *testing.T) {
	c := &Charge{Price: 10, Method: NPeakAverage} // zero NPeaks, constructed directly
	l := load(t, 3000, 6000, 9000, 100)
	if got := c.BilledDemand(l, 0); got != 6000 {
		t.Errorf("billed = %v, want 6000 (top-3 mean)", got)
	}
	if !strings.Contains(c.Describe(), "top 3") {
		t.Error("describe should mention default 3")
	}
}

func TestRatchet(t *testing.T) {
	c := MustNewCharge(10, Ratchet, 0, 0.8)
	l := load(t, 5000, 6000) // current peak 6 MW
	// Historical peak 10 MW → floor 8 MW dominates.
	if got := c.BilledDemand(l, 10000); got != 8000 {
		t.Errorf("ratcheted billed = %v, want 8000", got)
	}
	// Historical peak small → current peak dominates.
	if got := c.BilledDemand(l, 1000); got != 6000 {
		t.Errorf("billed = %v, want 6000", got)
	}
	if !strings.Contains(c.Describe(), "ratchet") {
		t.Error("describe")
	}
}

func TestBilledDemandEdgeCases(t *testing.T) {
	c := SimpleCharge(10)
	if got := c.BilledDemand(load(t), 0); got != 0 {
		t.Errorf("empty load billed = %v", got)
	}
	// Net-export samples clamp to zero.
	if got := c.BilledDemand(load(t, -500, -100, -200), 0); got != 0 {
		t.Errorf("export-only billed = %v", got)
	}
	sp := MustNewCharge(10, SinglePeak, 0, 0)
	if got := sp.BilledDemand(load(t, -500), 0); got != 0 {
		t.Errorf("single-peak export billed = %v", got)
	}
}

func TestChargeDescribe(t *testing.T) {
	if !strings.Contains(MustNewCharge(10, SinglePeak, 0, 0).Describe(), "single peak") {
		t.Error("single-peak describe")
	}
	// Unknown method falls back to peak in BilledDemand.
	c := &Charge{Price: 10, Method: Method(42)}
	if got := c.BilledDemand(load(t, 1000, 2000), 0); got != 2000 {
		t.Errorf("unknown-method billed = %v", got)
	}
}

func TestNewPowerbandValidation(t *testing.T) {
	if _, err := NewPowerband(0, 0, 0, 0); err == nil {
		t.Error("zero upper should fail")
	}
	if _, err := NewPowerband(5000, 4000, 1, 1); err == nil {
		t.Error("lower >= upper should fail")
	}
	if _, err := NewPowerband(-1, 4000, 1, 1); err == nil {
		t.Error("negative lower should fail")
	}
	if _, err := NewPowerband(1000, 4000, -1, 1); err == nil {
		t.Error("negative penalty should fail")
	}
	if _, err := NewUpperPowerband(0, 1); err == nil {
		t.Error("zero upper should fail")
	}
	if _, err := NewUpperPowerband(1000, -1); err == nil {
		t.Error("negative penalty should fail")
	}
}

func TestMustNewPowerbandPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("should panic")
		}
	}()
	MustNewPowerband(0, 0, 0, 0)
}

func TestPowerbandViolations(t *testing.T) {
	b := MustNewPowerband(2000, 10000, 0.50, 1.00)
	// In, over, over, in, under, in — two excursions.
	l := load(t, 5000, 12000, 14000, 5000, 1000, 5000)
	vs := b.Violations(l)
	if len(vs) != 2 {
		t.Fatalf("violations = %d, want 2", len(vs))
	}
	over := vs[0]
	if !over.Above || over.Duration != 30*time.Minute || over.WorstPower != 14000 {
		t.Errorf("over excursion = %+v", over)
	}
	// Excess: (2 MW + 4 MW) × 0.25 h = 1.5 MWh.
	if math.Abs(over.ExcessEnergy.MWh()-1.5) > 1e-9 {
		t.Errorf("over excess = %v", over.ExcessEnergy)
	}
	under := vs[1]
	if under.Above || under.WorstPower != 1000 {
		t.Errorf("under excursion = %+v", under)
	}
	// Shortfall: 1 MW × 0.25 h = 0.25 MWh.
	if math.Abs(under.ExcessEnergy.MWh()-0.25) > 1e-9 {
		t.Errorf("under excess = %v", under.ExcessEnergy)
	}
}

func TestPowerbandAdjacentOpposingExcursionsSplit(t *testing.T) {
	b := MustNewPowerband(2000, 10000, 0.50, 1.00)
	l := load(t, 12000, 1000) // over then immediately under
	vs := b.Violations(l)
	if len(vs) != 2 || !vs[0].Above || vs[1].Above {
		t.Errorf("adjacent opposing excursions should split: %+v", vs)
	}
}

func TestPowerbandCost(t *testing.T) {
	b := MustNewPowerband(2000, 10000, 0.50, 1.00)
	l := load(t, 12000, 1000)
	// Over: 2 MW × 0.25 h × 1.00/kWh = 500 kWh → 500.
	// Under: 1 MW × 0.25 h × 0.50/kWh = 250 kWh × 0.5 → 125.
	if got, want := bill(t, b, l), units.CurrencyUnits(625); got != want {
		t.Errorf("cost = %v, want %v", got, want)
	}
	clean := load(t, 5000, 5000)
	if bill(t, b, clean) != 0 {
		t.Error("in-band load should cost nothing")
	}
}

func TestUpperOnlyPowerband(t *testing.T) {
	b, err := NewUpperPowerband(10000, 1.00)
	if err != nil {
		t.Fatal(err)
	}
	l := load(t, 500, 12000) // low draw fine, over penalized
	vs := b.Violations(l)
	if len(vs) != 1 || !vs[0].Above {
		t.Errorf("violations = %+v", vs)
	}
	if !strings.Contains(b.Describe(), "[0,") {
		t.Error("describe should show upper-only form")
	}
}

func TestComplianceRatio(t *testing.T) {
	b := MustNewPowerband(2000, 10000, 0.5, 1)
	l := load(t, 5000, 12000, 1000, 5000)
	if got := b.ComplianceRatio(l); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("compliance = %v, want 0.5", got)
	}
	if got := b.ComplianceRatio(load(t)); got != 1 {
		t.Errorf("empty compliance = %v, want 1", got)
	}
	if !strings.Contains(b.Describe(), "powerband") {
		t.Error("describe")
	}
}

// Property: powerband cost is zero iff compliance is 1 (with positive
// penalties).
func TestQuickPowerbandCostIffViolation(t *testing.T) {
	b := MustNewPowerband(2000, 10000, 0.5, 1)
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]units.Power, len(raw))
		for i, v := range raw {
			samples[i] = units.Power(v)
		}
		l := timeseries.MustNewPower(t0, 15*time.Minute, samples)
		cost := bill(t, b, l)
		ratio := b.ComplianceRatio(l)
		if ratio == 1 {
			return cost == 0
		}
		return cost > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: billed demand under NPeakAverage never exceeds the single
// peak and never falls below the N-th ranked sample.
func TestQuickNPeakBounds(t *testing.T) {
	c := SimpleCharge(10)
	sp := MustNewCharge(10, SinglePeak, 0, 0)
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]units.Power, len(raw))
		for i, v := range raw {
			samples[i] = units.Power(v)
		}
		l := timeseries.MustNewPower(t0, 15*time.Minute, samples)
		return c.BilledDemand(l, 0) <= sp.BilledDemand(l, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ratchet billed demand is monotone in historical peak.
func TestQuickRatchetMonotone(t *testing.T) {
	c := MustNewCharge(10, Ratchet, 0, 0.8)
	l := load(t, 4000, 5000, 6000)
	f := func(h1, h2 uint16) bool {
		a, b := units.Power(h1), units.Power(h2)
		if a > b {
			a, b = b, a
		}
		return c.BilledDemand(l, a) <= c.BilledDemand(l, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: capping a load at the band's upper limit eliminates all
// over-band cost.
func TestQuickCappingEliminatesOverCost(t *testing.T) {
	b, _ := NewUpperPowerband(8000, 2)
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]units.Power, len(raw))
		for i, v := range raw {
			samples[i] = units.Power(v)
		}
		l := timeseries.MustNewPower(t0, 15*time.Minute, samples)
		capped := l.ClampAbove(8000)
		return bill(t, b, capped) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkPowerbandViolationsYear(b *testing.B) {
	samples := make([]units.Power, 35040)
	for i := range samples {
		samples[i] = units.Power(8000 + 4000*math.Sin(float64(i)/96))
	}
	l := timeseries.MustNewPower(t0, 15*time.Minute, samples)
	band := MustNewPowerband(5000, 11000, 0.5, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = band.Violations(l)
	}
}
