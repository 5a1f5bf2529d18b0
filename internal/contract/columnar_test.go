package contract

// Columnar ≡ legacy equivalence. Every engine bills on the columnar
// scan; the golden tests already cross-check it against the legacy
// multi-pass path on the example contracts, and this suite stresses the
// cases where the columnar representation could plausibly diverge: DST
// transition months, partial first/last months, series whose chunk
// boundaries straddle month edges, CPP tariffs priced per sample inside
// the scan, and a fuzz target over random geometries.

import (
	"math"
	"testing"
	"time"

	"repro/internal/calendar"
	"repro/internal/demand"
	"repro/internal/tariff"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// assertColumnarMatchesLegacy bills the case on the engine and on the
// legacy multi-pass path and requires identical bills, single period
// and monthly. columnar is the Engine.Columnar the contract must report:
// false exactly when some tariff is a CPP tariff.
func assertColumnarMatchesLegacy(t *testing.T, name string, c *Contract, load *timeseries.PowerSeries, in BillingInput, columnar bool) {
	t.Helper()
	eng, err := NewEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Columnar() != columnar {
		t.Fatalf("%s: Columnar() = %v, want %v", name, eng.Columnar(), columnar)
	}

	colBill, err := eng.Bill(load, in)
	if err != nil {
		t.Fatal(err)
	}
	colMonths, err := eng.BillMonths(load, in)
	if err != nil {
		t.Fatal(err)
	}
	legacyBill, err := ComputeBillLegacy(c, load, in)
	if err != nil {
		t.Fatal(err)
	}
	legacyMonths, err := BillMonthsLegacy(c, load, in)
	if err != nil {
		t.Fatal(err)
	}

	assertBillsIdentical(t, name+"/columnar-vs-legacy", colBill, legacyBill)
	if len(colMonths) != len(legacyMonths) {
		t.Fatalf("%s: month counts %d / %d", name, len(colMonths), len(legacyMonths))
	}
	for i := range colMonths {
		label := name + "/" + colMonths[i].PeriodStart.Format("2006-01")
		assertBillsIdentical(t, label+"/columnar-vs-legacy", colMonths[i], legacyMonths[i])
	}
}

// columnarContract is a kitchen-sink contract exercising every kernel:
// fixed, TOU and dynamic tariffs (one pair a rider on a fixed rate,
// as two entries), all three demand-charge
// methods, a two-sided powerband, an emergency obligation and fees.
func columnarContract(t *testing.T, feedStart time.Time, feedLen int) *Contract {
	t.Helper()
	prices := make([]units.EnergyPrice, feedLen)
	for i := range prices {
		prices[i] = units.EnergyPrice(0.025 + 0.02*math.Sin(float64(i)/5))
	}
	feed := timeseries.MustNewPrice(feedStart, time.Hour, prices)
	holidays := calendar.NewHolidayCalendar(
		time.Date(2016, time.January, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2016, time.August, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2016, time.December, 26, 0, 0, 0, 0, time.UTC),
	)
	return &Contract{
		Name: "columnar-kitchen-sink",
		Tariffs: []tariff.Tariff{
			tariff.MustNewFixed(0.051),
			tariff.MustNewTOU(calendar.SeasonalDayNight(7, 21, holidays), map[string]units.EnergyPrice{
				"summer-peak": 0.041, "peak": 0.021, "offpeak": 0.006,
			}),
			tariff.MustNewDynamic(feed, 1.15, 0.011),
			tariff.MustNewFixed(0.013), // with the next entry, a dynamic rider on a fixed rate
			tariff.MustNewDynamic(feed, 0.35, 0),
		},
		DemandCharges: []*demand.Charge{
			demand.MustNewCharge(11, demand.SinglePeak, 0, 0),
			demand.SimpleCharge(13),
			demand.MustNewCharge(12, demand.Ratchet, 0, 0.8),
		},
		Powerbands: []*demand.Powerband{
			demand.MustNewPowerband(6*units.Megawatt, 17*units.Megawatt, 0.25, 0.55),
		},
		Emergencies: []*EmergencyObligation{{
			Name: "grid emergency", Cap: 10 * units.Megawatt, Penalty: 1.8,
		}},
		Fees: []FixedFee{{Name: "metering", Amount: units.CurrencyUnits(420)}},
	}
}

// columnarCPPContract is columnarContract plus four CPP tariffs,
// priced per sample along the CPP walk: one over a TOU base, with
// windows across the first month edge after start and across both 2016
// DST days in Europe/Zurich (start's zone without tzdata), one over a
// fixed base beside a fixed entry, one over the dynamic rider entry,
// and one over that CPP with windows of its own, so the walk nests.
func columnarCPPContract(t *testing.T, start, feedStart time.Time, feedLen int) *Contract {
	t.Helper()
	c := columnarContract(t, feedStart, feedLen)
	c.Name = "columnar-cpp"
	dst := start.Location()
	if zurich, err := time.LoadLocation("Europe/Zurich"); err == nil {
		dst = zurich
	}
	y, m, _ := start.Date()
	edge := time.Date(y, m+1, 1, 0, 0, 0, 0, start.Location())
	windows := []tariff.CriticalWindow{
		{Start: start.Add(20 * time.Hour), End: start.Add(27 * time.Hour)},
		{Start: edge.Add(-5 * time.Hour), End: edge.Add(4 * time.Hour)},
		{Start: time.Date(2016, time.March, 27, 0, 0, 0, 0, dst), End: time.Date(2016, time.March, 28, 0, 0, 0, 0, dst)},
		{Start: time.Date(2016, time.October, 30, 0, 0, 0, 0, dst), End: time.Date(2016, time.October, 31, 0, 0, 0, 0, dst)},
	}
	cpp := func(base tariff.Tariff, rate units.EnergyPrice, ws []tariff.CriticalWindow) *tariff.CPPTariff {
		tt, err := tariff.NewCPP(base, rate, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range ws {
			if err := tt.Declare(w); err != nil {
				t.Fatal(err)
			}
		}
		return tt
	}
	overDynamic := cpp(c.Tariffs[4], 0.4, windows[:3])
	c.Tariffs = append(c.Tariffs,
		cpp(c.Tariffs[1], 0.62, windows),
		tariff.MustNewFixed(0.019),
		cpp(tariff.MustNewFixed(0.013), 0.3, windows[1:]),
		overDynamic,
		cpp(overDynamic, 0.9, []tariff.CriticalWindow{
			{Start: start.Add(24 * time.Hour), End: start.Add(33 * time.Hour)}, // from inside the inner window to past it
			windows[3],
		}),
	)
	return c
}

// columnarLoad builds a deterministic sinusoid-plus-drift load without
// the hpc generator, so start instants and intervals are unconstrained.
func columnarLoad(start time.Time, interval time.Duration, n int) *timeseries.PowerSeries {
	samples := make([]units.Power, n)
	for i := range samples {
		v := 11000 + 4500*math.Sin(float64(i)/37) + 1800*math.Sin(float64(i)/7+1.1) + float64(i%97)
		samples[i] = units.Power(v)
	}
	return timeseries.MustNewPower(start, interval, samples)
}

func columnarInput(start time.Time) BillingInput {
	return BillingInput{
		HistoricalPeak: 19 * units.Megawatt,
		Events: []EmergencyEvent{
			{Start: start.Add(31 * time.Hour), Duration: 3 * time.Hour},
			{Start: start.Add(32 * time.Hour), Duration: 4 * time.Hour}, // overlaps the first
			{Start: start.Add(50 * 24 * time.Hour), Duration: 2 * time.Hour},
		},
	}
}

func TestColumnarEquivalenceUTCYear(t *testing.T) {
	start := time.Date(2016, time.January, 1, 0, 0, 0, 0, time.UTC)
	load := columnarLoad(start, 15*time.Minute, 366*24*4)
	assertColumnarMatchesLegacy(t, "utc-leap-year", columnarContract(t, start, 400), load, columnarInput(start), true)
	assertColumnarMatchesLegacy(t, "utc-leap-year/cpp", columnarCPPContract(t, start, start, 400), load, columnarInput(start), false)
}

func TestColumnarEquivalencePartialMonths(t *testing.T) {
	// Starts mid-March at an off-hour instant and ends mid-June: partial
	// first and last months, odd alignment against hour and feed slots.
	start := time.Date(2016, time.March, 17, 13, 7, 0, 0, time.UTC)
	load := columnarLoad(start, 7*time.Minute, 18000)
	feedStart := start.Add(26 * time.Hour)
	assertColumnarMatchesLegacy(t, "partial-months", columnarContract(t, feedStart, 300), load, columnarInput(start), true)
	assertColumnarMatchesLegacy(t, "partial-months/cpp", columnarCPPContract(t, start, feedStart, 300), load, columnarInput(start), false)
}

func TestColumnarEquivalenceZurichDST(t *testing.T) {
	loc, err := time.LoadLocation("Europe/Zurich")
	if err != nil {
		t.Skipf("tzdata unavailable: %v", err)
	}
	cases := []struct {
		name  string
		start time.Time
		n     int
	}{
		// 2016-03-27 02:00 CET jumps to 03:00 CEST.
		{"spring-forward", time.Date(2016, time.March, 20, 0, 0, 0, 0, loc), 14 * 24 * 4},
		// 2016-10-30 03:00 CEST falls back to 02:00 CET: the repeated
		// hour forces the TOU scanner's per-sample degradation.
		{"fall-back", time.Date(2016, time.October, 24, 0, 0, 0, 0, loc), 14 * 24 * 4},
		{"full-year", time.Date(2016, time.January, 1, 0, 0, 0, 0, loc), 366 * 24 * 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			load := columnarLoad(tc.start, 15*time.Minute, tc.n)
			assertColumnarMatchesLegacy(t, tc.name, columnarContract(t, tc.start, 24*20), load, columnarInput(tc.start), true)
			assertColumnarMatchesLegacy(t, tc.name+"/cpp", columnarCPPContract(t, tc.start, tc.start, 24*20), load, columnarInput(tc.start), false)
		})
	}
}

// TestColumnarEmergencyEndingCenturiesOut: an event that starts 20
// days into the load and lasts time.Duration's maximum (about what the
// largest duration_minutes an EventSpec can carry gives) ends more than
// 292 years after the load's start, where time.Time.Sub saturates; the
// engine must still cover its samples as the legacy path does.
func TestColumnarEmergencyEndingCenturiesOut(t *testing.T) {
	start := time.Date(2016, time.January, 1, 0, 0, 0, 0, time.UTC)
	load := columnarLoad(start, 15*time.Minute, 62*96)
	in := BillingInput{Events: []EmergencyEvent{{Start: start.Add(20 * 24 * time.Hour), Duration: math.MaxInt64}}}
	assertColumnarMatchesLegacy(t, "far-emergency", columnarContract(t, start, 400), load, in, true)
}

// TestColumnarFallsBackOnCPP: a CPP contract reports Columnar() false,
// the bit the fleet benchmark splits its spec pools by, and the engine
// bills it identically to the legacy path.
func TestColumnarFallsBackOnCPP(t *testing.T) {
	cpp, err := tariff.NewCPP(tariff.MustNewFixed(0.05), 0.75, 4)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2016, time.May, 1, 0, 0, 0, 0, time.UTC)
	if err := cpp.Declare(tariff.CriticalWindow{Start: start.Add(40 * time.Hour), End: start.Add(43 * time.Hour)}); err != nil {
		t.Fatal(err)
	}
	c := &Contract{
		Name:          "cpp-site",
		Tariffs:       []tariff.Tariff{cpp},
		DemandCharges: []*demand.Charge{demand.SimpleCharge(12)},
	}
	load := columnarLoad(start, 15*time.Minute, 30*24*4)
	assertColumnarMatchesLegacy(t, "cpp-fallback", c, load, BillingInput{}, false)
}

// FuzzColumnarEquivalence cross-checks the engine against the legacy
// path over random series geometries — arbitrary start instant,
// interval and length, so month blocks of every shape (empty-adjacent,
// single-sample, chunk-straddling) flow through the kernels. Starts in
// a +05:30 fixed zone and in Europe/Zurich (when its tzdata is present;
// both DST transitions) hold the TOU kernel's wall-clock hours to the
// oracle away from UTC. Each input bills the native contract and its
// CPP variant.
func FuzzColumnarEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(900), uint16(3000), uint8(0))
	f.Add(int64(2016), uint16(420), uint16(9000), uint8(1))
	f.Add(int64(-7), uint16(60), uint16(2100), uint8(2))
	f.Add(int64(99), uint16(10800), uint16(800), uint8(3))
	f.Add(int64(5), uint16(900), uint16(4000), uint8(4))
	f.Add(int64(3), uint16(420), uint16(9000), uint8(5))
	f.Add(int64(11), uint16(900), uint16(3000), uint8(6))
	starts := []time.Time{
		time.Date(2016, time.January, 31, 23, 59, 0, 0, time.UTC),
		time.Date(2016, time.February, 28, 11, 13, 7, 0, time.UTC),
		time.Date(2015, time.December, 15, 6, 30, 0, 0, time.UTC),
		time.Date(2016, time.June, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2016, time.March, 30, 22, 0, 0, 0, time.FixedZone("+05:30", 5*3600+1800)),
	}
	if zurich, err := time.LoadLocation("Europe/Zurich"); err == nil {
		starts = append(starts,
			time.Date(2016, time.March, 20, 0, 0, 0, 0, zurich),
			time.Date(2016, time.October, 24, 0, 0, 0, 0, zurich))
	}
	f.Fuzz(func(t *testing.T, seed int64, intervalSec uint16, n uint16, startSel uint8) {
		if intervalSec == 0 || n == 0 {
			t.Skip()
		}
		interval := time.Duration(intervalSec) * time.Second
		start := starts[int(startSel)%len(starts)].Add(time.Duration(seed%3600) * time.Second)

		samples := make([]units.Power, int(n))
		state := uint64(seed)*2654435761 + 12345
		for i := range samples {
			state = state*6364136223846793005 + 1442695040888963407
			// Mostly in-band with occasional excursions on either side.
			samples[i] = units.Power(4000 + float64(state%24000))
		}
		load := timeseries.MustNewPower(start, interval, samples)

		feedStart := start.Add(time.Duration(seed%48) * time.Hour)
		in := columnarInput(start)
		assertColumnarMatchesLegacy(t, "fuzz", columnarContract(t, feedStart, 200), load, in, true)
		assertColumnarMatchesLegacy(t, "fuzz-cpp", columnarCPPContract(t, start, feedStart, 200), load, in, false)
	})
}
