package tariff

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/calendar"
	"repro/internal/units"
)

// touAdvanceRef is the TOU scanner's hour-segment step as it was before
// the arithmetic path: every advance resolves the instant's wall clock
// through time.Date. It is the reference TestTOUAdvanceMatchesReference
// holds advance to.
type touAdvanceRef struct {
	sched    *calendar.Schedule
	cube     *priceCube
	start    time.Time
	interval time.Duration

	price  units.EnergyPrice
	segEnd int

	curY, curD int
	curM       time.Month
	kind       calendar.DayKind
	haveDay    bool
}

func (s *touAdvanceRef) advance(i int) {
	t := s.start.Add(time.Duration(i) * s.interval)
	y, mo, d := t.Date()
	if !s.haveDay || y != s.curY || mo != s.curM || d != s.curD {
		s.curY, s.curM, s.curD = y, mo, d
		s.kind = s.sched.DayKindAt(t)
		s.haveDay = true
	}
	hour := t.Hour()
	s.price = s.cube[mo-1][s.kind][hour]
	boundary := time.Date(y, mo, d, hour, 0, 0, 0, t.Location()).Add(time.Hour)
	seg := billing.CeilIndex(boundary.Sub(s.start), s.interval)
	if seg <= i {
		seg = i + 1
	}
	s.segEnd = seg
}

// distinctCubeKernel is a TOU kernel whose every (month, day-kind, hour)
// slot has its own price, so a segment priced from the wrong hour, day
// or month shows up as a different price.
func distinctCubeKernel(holidays *calendar.HolidayCalendar) *touCostKernel {
	k := &touCostKernel{sched: calendar.DayNight(8, 20, holidays)}
	for m := range k.cube {
		for d := range k.cube[m] {
			for h := range k.cube[m][d] {
				k.cube[m][d][h] = units.EnergyPrice(float64(10000*m+100*d+h+1) / 1e4)
			}
		}
	}
	return k
}

// TestTOUAdvanceMatchesReference walks every hour segment of a few days
// from each start and requires the scanner's price and segment end to
// match the time.Date reference at every step: UTC, two fixed offsets
// (one negative, both off the hour), and two DST zones across both
// transitions and a year boundary, at intervals that do and do not
// divide the hour. Starts before 1678 and after 2262 cannot be
// expressed in int64 nanoseconds and must take the reference path.
func TestTOUAdvanceMatchesReference(t *testing.T) {
	zones := []*time.Location{
		time.UTC,
		time.FixedZone("+05:30", 5*3600+1800),
		time.FixedZone("-03:30", -(3*3600 + 1800)),
	}
	for _, name := range []string{"Europe/Zurich", "America/Denver"} {
		loc, err := time.LoadLocation(name)
		if err != nil {
			t.Logf("skipping %s: tzdata unavailable: %v", name, err)
			continue
		}
		zones = append(zones, loc)
	}
	intervals := []time.Duration{
		time.Minute, 7 * time.Minute, 15 * time.Minute, time.Hour, 90 * time.Minute, 3 * time.Hour,
	}
	type when struct {
		y          int
		mo         time.Month
		d, h, m, s int
	}
	starts := []when{
		{2016, time.March, 11, 22, 7, 0},    // Denver springs forward on the 13th
		{2016, time.March, 25, 23, 59, 30},  // Zurich springs forward on the 27th
		{2016, time.October, 28, 1, 30, 0},  // Zurich falls back on the 30th
		{2016, time.November, 4, 12, 44, 0}, // Denver falls back on the 6th
		{2015, time.December, 29, 6, 13, 7}, // a year boundary
		{2016, time.June, 1, 0, 0, 0},       // far from any transition
	}
	hols := calendar.NewHolidayCalendar(
		time.Date(2016, time.January, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2016, time.March, 27, 0, 0, 0, 0, time.UTC),
		time.Date(2016, time.October, 30, 0, 0, 0, 0, time.UTC),
	)
	k := distinctCubeKernel(hols)
	for _, loc := range zones {
		for _, iv := range intervals {
			for _, w := range starts {
				start := time.Date(w.y, w.mo, w.d, w.h, w.m, w.s, 0, loc)
				checkAdvance(t, k, start, iv, int(5*24*time.Hour/iv))
			}
		}
	}
	for _, start := range []time.Time{
		time.Date(1650, time.June, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2300, time.December, 30, 0, 0, 0, 0, time.FixedZone("+05:30", 5*3600+1800)),
	} {
		checkAdvance(t, k, start, 15*time.Minute, 4*96)
	}
}

func checkAdvance(t *testing.T, k *touCostKernel, start time.Time, iv time.Duration, n int) {
	t.Helper()
	s := k.newScanner().(*touCostScanner)
	s.begin(start, iv, n)
	ref := &touAdvanceRef{sched: k.sched, cube: &k.cube, start: start, interval: iv}
	name := fmt.Sprintf("%s/%v", start.Format(time.RFC3339), iv)
	for i := 0; i < n; i = s.segEnd {
		s.advance(i)
		ref.advance(i)
		if s.price != ref.price || s.segEnd != ref.segEnd {
			t.Fatalf("%s: sample %d: price %v segEnd %d, reference %v %d",
				name, i, s.price, s.segEnd, ref.price, ref.segEnd)
		}
	}
}
