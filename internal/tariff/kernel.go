package tariff

// Columnar kernels for the kWh branch. Every tariff compiles to a
// billing.Kernel whose scanner reproduces the tariff's Cost arithmetic
// exactly: a fixed tariff sums energy and rounds once; every other kind
// prices and rounds per sample, in tariffScanner's one loop over a
// priceWalk: a walk names the price of a sample and the first later
// sample where it may change, so the loop prices a segment at a time
// with no per-sample lookup. Each tariff compiles its own walk through
// the unexported Tariff.walker, so every Tariff is one of this
// package's kinds and none is priced through PriceAt. The walks:
//
//   - TOU (touWalk): the schedule is lowered to a month × day-kind ×
//     hour price cube at compile time (calendar.LabelForSlot
//     guarantees the label is a pure function of that triple), and
//     segments are wall-clock hours, found by integer arithmetic
//     wherever the zone's offset is constant (advanceFast).
//   - Dynamic (feedWalk): the feed's slot grid, with the same clamping
//     PriceSeries.PriceAt applies at the edges.
//   - CPP (cppWalk): the declared windows become merged sample-index
//     spans at each period's start (billing.AppendSpans, which the
//     emergency kernel builds its spans with too). Inside a span the
//     critical rate holds to the span's end; outside, the base
//     tariff's walk runs, its segments cut at the next span's start.
//   - Fixed under a CPP (constWalk): one segment for the period.

import (
	"math"
	"time"

	"repro/internal/billing"
	"repro/internal/calendar"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// maxSegEnd marks a price segment that runs to the end of any period.
const maxSegEnd = int(^uint(0) >> 1)

// CompileKernel compiles the adapted tariff into a columnar kernel.
func (p producer) CompileKernel() billing.Kernel {
	k := &tariffKernel{class: classFor(p.t.Kind()), desc: p.t.Describe()}
	if f, ok := p.t.(*FixedTariff); ok {
		k.rate = f.Rate
	} else {
		k.walk = p.t.walker()
	}
	return k
}

// tariffKernel holds the period-invariant line-item metadata and what
// prices the period: a fixed tariff's rate, or the maker of every
// other tariff's walk.
type tariffKernel struct {
	class billing.Class
	desc  string
	rate  units.EnergyPrice
	walk  func() priceWalk // nil for a fixed tariff
}

func (k *tariffKernel) NewScanner() billing.Scanner {
	s := &tariffScanner{k: k}
	if k.walk != nil {
		s.walk = k.walk()
	}
	return s
}

// tariffScanner keeps a running period-energy sum for the quantity
// column. A fixed tariff prices that sum once, as FixedTariff.Cost
// does; every other tariff bills each sample's energy at its walk price
// and rounds it on its own, as costByPriceAt does. This is the one
// per-sample pricing loop.
type tariffScanner struct {
	k      *tariffKernel
	walk   priceWalk // nil for a fixed tariff
	h      float64
	kwh    float64
	total  units.Money
	price  units.EnergyPrice
	segEnd int
	buf    []byte
}

func (s *tariffScanner) Begin(_ *billing.PeriodContext, start time.Time, interval time.Duration, n int) {
	s.h = interval.Hours()
	s.kwh, s.total, s.segEnd = 0, 0, 0
	if s.walk != nil {
		s.walk.begin(start, interval, n)
	}
}

func (s *tariffScanner) Scan(samples []units.Power, base int) {
	h := s.h
	kwh := s.kwh
	for _, p := range samples {
		kwh += float64(p) * h
	}
	s.kwh = kwh
	if s.walk == nil {
		return
	}
	total := s.total
	for j := 0; j < len(samples); {
		if base+j >= s.segEnd {
			s.price, s.segEnd = s.walk.advance(base + j)
		}
		end := min(s.segEnd-base, len(samples))
		price := s.price
		for ; j < end; j++ {
			total += price.Cost(units.Energy(float64(samples[j]) * h))
		}
	}
	s.total = total
}

func (s *tariffScanner) AppendLines(dst []billing.LineItem) []billing.LineItem {
	amount := s.total
	if s.walk == nil {
		amount = s.k.rate.Cost(units.Energy(s.kwh))
	}
	s.buf = units.AppendEnergy(s.buf[:0], units.Energy(s.kwh))
	return append(dst, billing.LineItem{
		Class:       s.k.class,
		Description: s.k.desc,
		Quantity:    string(s.buf),
		Amount:      amount,
	})
}

// priceWalk names the price every sample of a period bills at, a
// segment of equal prices at a time.
type priceWalk interface {
	// begin resets the walk for a period of n samples from start.
	begin(start time.Time, interval time.Duration, n int)
	// advance returns the tariff's PriceAt of sample i's instant and
	// segEnd > i such that every sample in [i, segEnd) bills at that
	// price. Successive calls pass increasing i, not always adjacent.
	advance(i int) (price units.EnergyPrice, segEnd int)
}

// constWalk is a fixed tariff's walk: one price for the whole period.
type constWalk struct{ price units.EnergyPrice }

func (t *FixedTariff) walker() func() priceWalk {
	w := &constWalk{price: t.Rate}
	return func() priceWalk { return w }
}

func (w *constWalk) begin(time.Time, time.Duration, int)  {}
func (w *constWalk) advance(int) (units.EnergyPrice, int) { return w.price, maxSegEnd }

// priceCube is a TOU schedule lowered to a dense lookup: month ×
// day-kind (indexed by calendar.DayKind) × hour.
type priceCube [12][4][24]units.EnergyPrice

// touCube bakes the schedule's label function and the rate map into a
// price cube. calendar.LabelForSlot is the pinned contract that the
// label depends only on (month, day-kind, hour).
func touCube(t *TOUTariff) *priceCube {
	cube := new(priceCube)
	for m := time.January; m <= time.December; m++ {
		for _, kind := range []calendar.DayKind{calendar.Weekday, calendar.Weekend, calendar.Holiday} {
			for h := 0; h < 24; h++ {
				cube[m-1][kind][h] = t.rates[t.schedule.LabelForSlot(m, kind, h)]
			}
		}
	}
	return cube
}

func (t *TOUTariff) walker() func() priceWalk {
	cube := touCube(t)
	return func() priceWalk { return &touWalk{sched: t.schedule, cube: cube} }
}

// touWalk walks a TOU tariff's wall-clock hours. Each advance
// re-derives (month, day-kind, hour) from the exact sample instant, so
// irregular intervals and DST transitions stay exact (a segment that
// cannot make progress degrades to one sample).
type touWalk struct {
	sched *calendar.Schedule
	cube  *priceCube

	start    time.Time
	interval time.Duration

	price  units.EnergyPrice
	segEnd int

	// Day-kind cache: KindOf is constant within a calendar day, and a
	// holiday lookup costs a date-key rendering.
	curY, curD int
	curM       time.Month
	kind       calendar.DayKind
	haveDay    bool

	// Arithmetic hour segments (advanceFast): start and interval in
	// nanoseconds, the zone offset in effect over the Unix-nanosecond
	// span [spanLo, spanHi) (already shrunk by its margin), and the
	// local day number curY/curM/curD were last derived for.
	startNs, ivNs  int64
	nsOK           bool
	off            int64
	spanLo, spanHi int64
	day            int64
}

func (s *touWalk) begin(start time.Time, interval time.Duration, _ int) {
	s.start = start
	s.interval = interval
	s.haveDay = false
	sec := start.Unix()
	s.nsOK = interval > 0 && sec > -fastSecLimit && sec < fastSecLimit
	if s.nsOK {
		s.startNs, s.ivNs = start.UnixNano(), int64(interval)
	}
	s.spanLo, s.spanHi = 1, 0 // empty: the first fast advance looks the zone up
	s.day = noDay
}

// Bounds of the arithmetic path. Start instants and offsets from them
// stay below 2⁶² and 2⁶¹ ns (about 146 and 73 years), so every sum in
// advanceFast fits an int64. Zone bounds within ±9·10⁹ s of the epoch
// convert to Unix nanoseconds exactly; farther ones lie beyond every
// instant advanceFast computes and leave their side of the span open.
const (
	fastSecLimit = (1 << 62) / int64(time.Second)
	fastRelLimit = 1 << 61
	zoneSecLimit = 9_000_000_000
	nsPerHour    = int64(time.Hour)
	nsPerDay     = 24 * nsPerHour
	noDay        = math.MinInt64
)

// advanceFast is advance by integer arithmetic on Unix nanoseconds. It
// applies only where the zone's offset is constant over the sample's
// hour with a day (plus the offset) of margin on each side: there the
// wall clock is the instant plus the offset, and the time.Date call in
// advance, which resolves a wall time by probing the zone at most one
// offset away, lands inside the same span. It re-derives (year, month,
// day, day-kind) only when the local day changes, from the same
// instant and with the same cache check as advance. Everywhere else it
// returns false before touching the price or the day cache:
// DST-adjacent hours and instants outside the int64-nanosecond range
// take advance's path.
func (s *touWalk) advanceFast(i int) bool {
	if !s.nsOK || int64(i) > fastRelLimit/s.ivNs {
		return false
	}
	tNs := s.startNs + int64(i)*s.ivNs
	if tNs < s.spanLo || tNs >= s.spanHi {
		s.zoneAt(s.start.Add(time.Duration(i) * s.interval))
		if tNs < s.spanLo || tNs >= s.spanHi {
			return false
		}
	}
	local := tNs + s.off
	day, inDay := floorDivMod(local, nsPerDay)
	if day != s.day {
		t := s.start.Add(time.Duration(i) * s.interval)
		y, mo, d := t.Date()
		if !s.haveDay || y != s.curY || mo != s.curM || d != s.curD {
			s.curY, s.curM, s.curD = y, mo, d
			s.kind = s.sched.DayKindAt(t)
			s.haveDay = true
		}
		s.day = day
	}
	s.price = s.cube[s.curM-1][s.kind][inDay/nsPerHour]
	boundary := tNs - inDay%nsPerHour + nsPerHour
	s.segEnd = billing.CeilIndex(time.Duration(boundary-s.startNs), s.interval)
	return true
}

// zoneAt records the offset in effect at t and the Unix-nanosecond span
// over which advanceFast may use it: the zone's bounds, each pulled in
// by a day plus the offset. An unbounded side, or one beyond the
// nanoseconds advanceFast computes, is left open.
func (s *touWalk) zoneAt(t time.Time) {
	_, off := t.Zone()
	s.off = int64(off) * int64(time.Second)
	s.spanLo, s.spanHi = 1, 0
	if s.off <= -nsPerDay || s.off >= nsPerDay {
		return // no real zone is a day off UTC; leave it to advance
	}
	margin := nsPerDay + max(s.off, -s.off)
	zs, ze := t.ZoneBounds()
	s.spanLo, s.spanHi = math.MinInt64, math.MaxInt64
	if !zs.IsZero() && zs.Unix() > -zoneSecLimit {
		s.spanLo = zs.UnixNano() + margin
	}
	if !ze.IsZero() && ze.Unix() < zoneSecLimit {
		s.spanHi = ze.UnixNano() - margin
	}
}

// floorDivMod is integer division rounding toward −∞, with the
// matching non-negative remainder.
func floorDivMod(a, b int64) (q, r int64) {
	q, r = a/b, a%b
	if r < 0 {
		q, r = q-1, r+b
	}
	return q, r
}

// advance finds the effective price at sample index i and the first
// index past the current wall-clock hour.
func (s *touWalk) advance(i int) (units.EnergyPrice, int) {
	if s.advanceFast(i) {
		return s.price, s.segEnd
	}
	s.day = noDay // the day cache below moves on without advanceFast
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
		// Wall clock stalled or stepped back (DST fall-back's repeated
		// hour): advance sample by sample, each priced from its exact
		// instant.
		seg = i + 1
	}
	s.segEnd = seg
	return s.price, s.segEnd
}

// feedWalk walks a dynamic tariff's feed slots: the feed price in
// effect at each sample's interval start, with PriceAt's edge clamping,
// marked up.
type feedWalk struct {
	feed  *timeseries.PriceSeries
	mult  float64
	adder units.EnergyPrice

	start    time.Time
	interval time.Duration
}

func (t *DynamicTariff) walker() func() priceWalk {
	return func() priceWalk { return &feedWalk{feed: t.feed, mult: t.multiplier, adder: t.adder} }
}

func (w *feedWalk) begin(start time.Time, interval time.Duration, _ int) {
	w.start = start
	w.interval = interval
}

// advance mirrors PriceSeries.PriceAt at sample index i and finds the
// first index whose instant leaves the current feed slot.
func (w *feedWalk) advance(i int) (units.EnergyPrice, int) {
	t := w.start.Add(time.Duration(i) * w.interval)
	fs := w.feed.Start()
	fi := w.feed.Interval()
	flen := w.feed.Len()
	var raw units.EnergyPrice
	seg := maxSegEnd
	switch {
	case flen == 0:
		raw = 0
	case t.Before(fs):
		raw = w.feed.At(0)
		seg = billing.CeilIndex(fs.Sub(w.start), w.interval)
	default:
		j := int(t.Sub(fs) / fi)
		if j >= flen {
			raw = w.feed.At(flen - 1)
		} else {
			raw = w.feed.At(j)
			boundary := fs.Add(time.Duration(j+1) * fi)
			seg = billing.CeilIndex(boundary.Sub(w.start), w.interval)
		}
	}
	if seg <= i {
		seg = i + 1
	}
	return units.EnergyPrice(float64(raw)*w.mult) + w.adder, seg
}

// cppWalk walks a CPP tariff over its base tariff's walk. A sample is
// in a span exactly when some declared window Covers its instant
// (billing.AppendSpans), which is when PriceAt returns the critical
// rate.
type cppWalk struct {
	t     *CPPTariff
	base  priceWalk
	spans []billing.Span
	cur   int // first span not wholly before the last advance
}

func (t *CPPTariff) walker() func() priceWalk {
	base := t.base.walker()
	return func() priceWalk { return &cppWalk{t: t, base: base()} }
}

func (w *cppWalk) begin(start time.Time, interval time.Duration, n int) {
	w.spans = billing.AppendSpans(w.spans[:0], w.t.windows, start, interval, n)
	w.cur = 0
	w.base.begin(start, interval, n)
}

func (w *cppWalk) advance(i int) (units.EnergyPrice, int) {
	for w.cur < len(w.spans) && w.spans[w.cur].Hi <= i {
		w.cur++
	}
	if w.cur == len(w.spans) {
		return w.base.advance(i)
	}
	sp := w.spans[w.cur]
	if sp.Lo <= i {
		return w.t.criticalRate, sp.Hi
	}
	price, end := w.base.advance(i)
	return price, min(end, sp.Lo)
}
