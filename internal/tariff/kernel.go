package tariff

// Columnar kernels for the kWh branch. Every tariff compiles to a
// billing.Kernel whose scanner reproduces the tariff's Cost arithmetic
// exactly: a fixed tariff sums energy and rounds once; every other kind
// prices and rounds per sample. For the in-package kinds the per-sample
// PriceAt lookup is compiled away:
//
//   - TOU: the schedule is lowered to a month × day-kind × hour price
//     cube at compile time (calendar.LabelForSlot guarantees the label
//     is a pure function of that triple), and the scanner advances the
//     effective price once per wall-clock hour segment instead of per
//     sample, finding each segment by integer arithmetic wherever the
//     zone's offset is constant (advanceFast).
//   - Dynamic: the feed's slot grid is walked segment-wise with the
//     same clamping PriceSeries.PriceAt applies at the edges.
//
// CPP tariffs (and any other out-of-package Tariff) have no native
// kernel: their scanner calls the tariff's own PriceAt at each sample's
// interval start, inside the same scan (HasNativeKernel).

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
	return &tariffKernel{
		class: classFor(p.t.Kind()),
		desc:  p.t.Describe(),
		cost:  compileCostKernel(p.t),
	}
}

// HasNativeKernel reports whether t compiles without the per-sample
// PriceAt scanner: false when t, or any component stacked in it, is a
// tariff kind with no native kernel (CPP today).
func HasNativeKernel(t Tariff) bool {
	switch tt := t.(type) {
	case *FixedTariff, *TOUTariff, *DynamicTariff:
		return true
	case *Stack:
		for _, c := range tt.components {
			if !HasNativeKernel(c) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// tariffKernel pairs the compiled cost kernel with the precomputed
// line-item metadata (class and description are period-invariant).
type tariffKernel struct {
	class billing.Class
	desc  string
	cost  costKernel
}

func (k *tariffKernel) NewScanner() billing.Scanner {
	return &tariffScanner{class: k.class, desc: k.desc, cost: k.cost.newScanner()}
}

// tariffScanner keeps a running period-energy sum for the quantity
// column and wraps the cost scanner.
type tariffScanner struct {
	class billing.Class
	desc  string
	cost  costScanner
	h     float64
	kwh   float64
	buf   []byte
}

func (s *tariffScanner) Begin(_ *billing.PeriodContext, start time.Time, interval time.Duration, n int) {
	s.h = interval.Hours()
	s.kwh = 0
	s.cost.begin(start, interval, n)
}

func (s *tariffScanner) Scan(samples []units.Power, base int) {
	h := s.h
	kwh := s.kwh
	for _, p := range samples {
		kwh += float64(p) * h
	}
	s.kwh = kwh
	s.cost.scan(samples, base)
}

func (s *tariffScanner) AppendLines(dst []billing.LineItem) []billing.LineItem {
	s.buf = units.AppendEnergy(s.buf[:0], units.Energy(s.kwh))
	return append(dst, billing.LineItem{
		Class:       s.class,
		Description: s.desc,
		Quantity:    string(s.buf),
		Amount:      s.cost.amount(),
	})
}

// costKernel / costScanner are the columnar form of Tariff.Cost.
type costKernel interface {
	newScanner() costScanner
}

type costScanner interface {
	begin(start time.Time, interval time.Duration, n int)
	scan(samples []units.Power, base int)
	amount() units.Money
}

// compileCostKernel lowers a tariff's cost arithmetic. Tariff
// implementations without a native kernel are priced per sample
// through their own PriceAt.
func compileCostKernel(t Tariff) costKernel {
	switch tt := t.(type) {
	case *FixedTariff:
		return fixedCostKernel{rate: tt.Rate}
	case *TOUTariff:
		return compileTOUKernel(tt)
	case *DynamicTariff:
		return feedCostKernel{feed: tt.feed, mult: tt.multiplier, adder: tt.adder}
	case *Stack:
		kids := make([]costKernel, len(tt.components))
		for i, c := range tt.components {
			kids[i] = compileCostKernel(c)
		}
		return stackCostKernel{kids: kids}
	default:
		return priceAtCostKernel{t: t}
	}
}

// fixedCostKernel reproduces FixedTariff.Cost: sum energy, price once.
type fixedCostKernel struct{ rate units.EnergyPrice }

func (k fixedCostKernel) newScanner() costScanner { return &fixedCostScanner{rate: k.rate} }

type fixedCostScanner struct {
	rate units.EnergyPrice
	h    float64
	kwh  float64
}

func (s *fixedCostScanner) begin(_ time.Time, interval time.Duration, _ int) {
	s.h = interval.Hours()
	s.kwh = 0
}

func (s *fixedCostScanner) scan(samples []units.Power, _ int) {
	h := s.h
	kwh := s.kwh
	for _, p := range samples {
		kwh += float64(p) * h
	}
	s.kwh = kwh
}

func (s *fixedCostScanner) amount() units.Money { return s.rate.Cost(units.Energy(s.kwh)) }

// priceCube is a TOU schedule lowered to a dense lookup: month ×
// day-kind (indexed by calendar.DayKind) × hour.
type priceCube [12][4][24]units.EnergyPrice

// compileTOUKernel bakes the schedule's label function and the rate map
// into a price cube. calendar.LabelForSlot is the pinned contract that
// the label depends only on (month, day-kind, hour).
func compileTOUKernel(t *TOUTariff) costKernel {
	k := &touCostKernel{sched: t.schedule}
	for m := time.January; m <= time.December; m++ {
		for _, kind := range []calendar.DayKind{calendar.Weekday, calendar.Weekend, calendar.Holiday} {
			for h := 0; h < 24; h++ {
				k.cube[m-1][kind][h] = t.rates[t.schedule.LabelForSlot(m, kind, h)]
			}
		}
	}
	return k
}

type touCostKernel struct {
	sched *calendar.Schedule
	cube  priceCube
}

func (k *touCostKernel) newScanner() costScanner {
	return &touCostScanner{sched: k.sched, cube: &k.cube}
}

// touCostScanner reproduces costByPriceAt for a TOU tariff: every sample's
// energy is billed at the slot price of its interval start, rounding
// per sample. The effective price advances per wall-clock hour segment;
// each advance re-derives (month, day-kind, hour) from the exact sample
// instant, so irregular intervals and DST transitions stay exact (a
// segment that cannot make progress degrades to per-sample advancing).
type touCostScanner struct {
	sched *calendar.Schedule
	cube  *priceCube

	start    time.Time
	interval time.Duration
	h        float64
	total    units.Money

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

func (s *touCostScanner) begin(start time.Time, interval time.Duration, _ int) {
	s.start = start
	s.interval = interval
	s.h = interval.Hours()
	s.total = 0
	s.segEnd = 0
	s.haveDay = false
	sec := start.Unix()
	s.nsOK = interval > 0 && sec > -fastSecLimit && sec < fastSecLimit
	if s.nsOK {
		s.startNs, s.ivNs = start.UnixNano(), int64(interval)
	}
	s.spanLo, s.spanHi = 1, 0 // empty: the first fast advance looks the zone up
	s.day = noDay
}

func (s *touCostScanner) scan(samples []units.Power, base int) {
	h := s.h
	total := s.total
	for j := 0; j < len(samples); {
		if base+j >= s.segEnd {
			s.advance(base + j)
		}
		end := s.segEnd - base
		if end > len(samples) {
			end = len(samples)
		}
		price := s.price
		for ; j < end; j++ {
			en := float64(samples[j]) * h
			total += price.Cost(units.Energy(en))
		}
	}
	s.total = total
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
func (s *touCostScanner) advanceFast(i int) bool {
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
func (s *touCostScanner) zoneAt(t time.Time) {
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

// advance recomputes the effective price at sample index i and the
// first index past the current wall-clock hour.
func (s *touCostScanner) advance(i int) {
	if s.advanceFast(i) {
		return
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
}

func (s *touCostScanner) amount() units.Money { return s.total }

// feedCostKernel reproduces costByPriceAt for a dynamic tariff: the feed
// price in effect at each sample's interval start (with PriceAt's edge
// clamping), marked up, priced and rounded per sample.
type feedCostKernel struct {
	feed  *timeseries.PriceSeries
	mult  float64
	adder units.EnergyPrice
}

func (k feedCostKernel) newScanner() costScanner {
	return &feedCostScanner{feed: k.feed, mult: k.mult, adder: k.adder}
}

type feedCostScanner struct {
	feed  *timeseries.PriceSeries
	mult  float64
	adder units.EnergyPrice

	start    time.Time
	interval time.Duration
	h        float64
	total    units.Money

	price  units.EnergyPrice
	segEnd int
}

func (s *feedCostScanner) begin(start time.Time, interval time.Duration, _ int) {
	s.start = start
	s.interval = interval
	s.h = interval.Hours()
	s.total = 0
	s.segEnd = 0
}

func (s *feedCostScanner) scan(samples []units.Power, base int) {
	h := s.h
	total := s.total
	for j := 0; j < len(samples); {
		if base+j >= s.segEnd {
			s.advance(base + j)
		}
		end := s.segEnd - base
		if end > len(samples) {
			end = len(samples)
		}
		price := s.price
		for ; j < end; j++ {
			en := float64(samples[j]) * h
			total += price.Cost(units.Energy(en))
		}
	}
	s.total = total
}

// advance mirrors PriceSeries.PriceAt at sample index i and finds the
// first index whose instant leaves the current feed slot.
func (s *feedCostScanner) advance(i int) {
	t := s.start.Add(time.Duration(i) * s.interval)
	fs := s.feed.Start()
	fi := s.feed.Interval()
	flen := s.feed.Len()
	var raw units.EnergyPrice
	seg := maxSegEnd
	switch {
	case flen == 0:
		raw = 0
	case t.Before(fs):
		raw = s.feed.At(0)
		seg = billing.CeilIndex(fs.Sub(s.start), s.interval)
	default:
		j := int(t.Sub(fs) / fi)
		if j >= flen {
			raw = s.feed.At(flen - 1)
		} else {
			raw = s.feed.At(j)
			boundary := fs.Add(time.Duration(j+1) * fi)
			seg = billing.CeilIndex(boundary.Sub(s.start), s.interval)
		}
	}
	if seg <= i {
		seg = i + 1
	}
	s.segEnd = seg
	s.price = units.EnergyPrice(float64(raw)*s.mult) + s.adder
}

func (s *feedCostScanner) amount() units.Money { return s.total }

// stackCostKernel reproduces Stack.Cost: each component accumulates
// independently and the amounts sum at the end, preserving
// per-component rounding.
type stackCostKernel struct{ kids []costKernel }

func (k stackCostKernel) newScanner() costScanner {
	kids := make([]costScanner, len(k.kids))
	for i, kid := range k.kids {
		kids[i] = kid.newScanner()
	}
	return &stackCostScanner{kids: kids}
}

type stackCostScanner struct{ kids []costScanner }

func (s *stackCostScanner) begin(start time.Time, interval time.Duration, n int) {
	for _, k := range s.kids {
		k.begin(start, interval, n)
	}
}

func (s *stackCostScanner) scan(samples []units.Power, base int) {
	for _, k := range s.kids {
		k.scan(samples, base)
	}
}

func (s *stackCostScanner) amount() units.Money {
	var total units.Money
	for _, k := range s.kids {
		total += k.amount()
	}
	return total
}

// priceAtCostKernel reproduces costByPriceAt for a tariff with no native
// kernel: each sample's energy is billed at t.PriceAt of its interval
// start, rounding per sample.
type priceAtCostKernel struct{ t Tariff }

func (k priceAtCostKernel) newScanner() costScanner { return &priceAtCostScanner{t: k.t} }

type priceAtCostScanner struct {
	t        Tariff
	start    time.Time
	interval time.Duration
	h        float64
	total    units.Money
}

func (s *priceAtCostScanner) begin(start time.Time, interval time.Duration, _ int) {
	s.start = start
	s.interval = interval
	s.h = interval.Hours()
	s.total = 0
}

func (s *priceAtCostScanner) scan(samples []units.Power, base int) {
	h := s.h
	total := s.total
	for j, p := range samples {
		at := s.start.Add(time.Duration(base+j) * s.interval)
		total += s.t.PriceAt(at).Cost(units.Energy(float64(p) * h))
	}
	s.total = total
}

func (s *priceAtCostScanner) amount() units.Money { return s.total }
