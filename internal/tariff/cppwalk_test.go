package tariff

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/calendar"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// TestCPPWalkMatchesPriceAt walks CPP tariffs over a fixed, a TOU, a
// dynamic and a CPP base (with windows of its own, over a dynamic
// tariff, so the walk nests) through periods around both 2016
// Europe/Zurich DST days, and requires every sample of every segment to
// bill at exactly CPPTariff.PriceAt of its instant: a segment that runs
// past a price change, in or out of a critical window, shows up as a
// sample priced wrong. The windows overlap, touch, are declared out of
// order, lie before and past the period or straddle its edges, and some
// are narrower than one interval. One walk per tariff is reused across
// the periods, as pooled scanners are.
func TestCPPWalkMatchesPriceAt(t *testing.T) {
	loc := time.UTC
	if zurich, err := time.LoadLocation("Europe/Zurich"); err == nil {
		loc = zurich
	} else {
		t.Logf("tzdata unavailable, windows in UTC: %v", err)
	}
	periods := []struct {
		start time.Time
		iv    time.Duration
		days  int
	}{
		{time.Date(2016, time.March, 25, 0, 0, 0, 0, loc), 15 * time.Minute, 5},   // spring-forward on the 27th
		{time.Date(2016, time.October, 28, 13, 7, 0, 0, loc), 7 * time.Minute, 4}, // fall-back on the 30th
		{time.Date(2016, time.March, 26, 22, 30, 0, 0, loc), 90 * time.Minute, 3},
		{time.Date(2016, time.October, 29, 0, 0, 0, 0, loc), time.Hour, 2},
	}

	holidays := calendar.NewHolidayCalendar(time.Date(2016, time.March, 28, 0, 0, 0, 0, time.UTC))
	prices := make([]units.EnergyPrice, 24*60)
	for i := range prices {
		prices[i] = units.EnergyPrice(0.03 + 0.02*math.Sin(float64(i)/5))
	}
	feed := timeseries.MustNewPrice(time.Date(2016, time.March, 24, 6, 30, 0, 0, time.UTC), time.Hour, prices)
	nested, err := NewCPP(MustNewDynamic(feed, 0.35, 0.013), 0.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range periods {
		for _, w := range []CriticalWindow{
			{Start: p.start.Add(3 * time.Hour), End: p.start.Add(6 * time.Hour)}, // across outer windows
			{Start: p.start.Add(9*time.Hour + 30*time.Minute), End: p.start.Add(10*time.Hour + 30*time.Minute)},
			{Start: p.start.Add(20 * time.Hour), End: p.start.Add(22*time.Hour + 7*time.Minute)}, // clear of them
			{Start: time.Date(2016, time.October, 30, 0, 30, 0, 0, loc), End: time.Date(2016, time.October, 30, 2, 30, 0, 0, loc)},
		} {
			if err := nested.Declare(w); err != nil {
				t.Fatal(err)
			}
		}
	}
	bases := map[string]Tariff{
		"fixed": MustNewFixed(0.07),
		"tou": MustNewTOU(calendar.SeasonalDayNight(7, 21, holidays), map[string]units.EnergyPrice{
			"summer-peak": 0.041, "peak": 0.021, "offpeak": 0.006,
		}),
		"dynamic": MustNewDynamic(feed, 1.15, 0.011),
		"cpp":     nested,
	}

	for name, base := range bases {
		cpp, err := NewCPP(base, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range periods {
			end := p.start.AddDate(0, 0, p.days)
			for _, w := range []CriticalWindow{
				{Start: p.start.Add(4 * time.Hour), End: p.start.Add(7 * time.Hour)}, // overlaps the next
				{Start: p.start.Add(2 * time.Hour), End: p.start.Add(5 * time.Hour)}, // declared out of order
				{Start: p.start.Add(10 * time.Hour), End: p.start.Add(11 * time.Hour)},
				{Start: p.start.Add(11 * time.Hour), End: p.start.Add(12*time.Hour + 1)}, // adjacent
				{Start: p.start.Add(-5 * time.Hour), End: p.start.Add(-time.Hour)},       // before the period
				{Start: p.start.Add(-time.Hour), End: p.start.Add(time.Hour)},            // straddles its start
				{Start: end.Add(-time.Hour), End: end.Add(2 * time.Hour)},                // straddles its end
				{Start: end.Add(time.Hour), End: end.Add(3 * time.Hour)},                 // past its end
				{Start: p.start.Add(30*time.Hour + time.Minute), End: p.start.Add(30*time.Hour + 2*time.Minute)},
				{Start: p.start.Add(31 * time.Hour), End: p.start.Add(31*time.Hour + 1)},
				{Start: time.Date(2016, time.March, 27, 1, 30, 0, 0, loc), End: time.Date(2016, time.March, 27, 4, 0, 0, 0, loc)},
				{Start: time.Date(2016, time.October, 30, 1, 30, 0, 0, loc), End: time.Date(2016, time.October, 30, 3, 30, 0, 0, loc)},
			} {
				if err := cpp.Declare(w); err != nil {
					t.Fatal(err)
				}
			}
		}
		walk := cpp.walker()()
		for _, p := range periods {
			n := int(p.start.AddDate(0, 0, p.days).Sub(p.start) / p.iv)
			checkWalk(t, fmt.Sprintf("%s/%s/%v", name, p.start.Format(time.RFC3339), p.iv), walk, cpp, p.start, p.iv, n)
		}
	}
}

// checkWalk walks one period segment by segment and holds every sample
// to tt.PriceAt of its instant.
func checkWalk(t *testing.T, name string, walk priceWalk, tt Tariff, start time.Time, iv time.Duration, n int) {
	t.Helper()
	walk.begin(start, iv, n)
	for i := 0; i < n; {
		price, segEnd := walk.advance(i)
		if segEnd <= i {
			t.Fatalf("%s: sample %d: segment ends at %d", name, i, segEnd)
		}
		for j := i; j < min(segEnd, n); j++ {
			if want := tt.PriceAt(start.Add(time.Duration(j) * iv)); math.Float64bits(float64(price)) != math.Float64bits(float64(want)) {
				t.Fatalf("%s: sample %d (segment [%d, %d)): walk price %v, PriceAt %v", name, j, i, segEnd, price, want)
			}
		}
		i = segEnd
	}
}
