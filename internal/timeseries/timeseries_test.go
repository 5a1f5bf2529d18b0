package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/units"
)

var t0 = time.Date(2016, time.January, 1, 0, 0, 0, 0, time.UTC)

func mkPower(t *testing.T, interval time.Duration, kw ...float64) *PowerSeries {
	t.Helper()
	samples := make([]units.Power, len(kw))
	for i, v := range kw {
		samples[i] = units.Power(v)
	}
	s, err := NewPower(t0, interval, samples)
	if err != nil {
		t.Fatalf("NewPower: %v", err)
	}
	return s
}

func TestNewPowerRejectsBadInterval(t *testing.T) {
	if _, err := NewPower(t0, 0, nil); err != ErrBadInterval {
		t.Errorf("want ErrBadInterval, got %v", err)
	}
	if _, err := NewPower(t0, -time.Minute, nil); err != ErrBadInterval {
		t.Errorf("want ErrBadInterval, got %v", err)
	}
}

func TestEndAndTimeAt(t *testing.T) {
	s := mkPower(t, time.Hour, 1, 2, 3)
	if got := s.End(); !got.Equal(t0.Add(3 * time.Hour)) {
		t.Errorf("End = %v", got)
	}
	if got := s.TimeAt(2); !got.Equal(t0.Add(2 * time.Hour)) {
		t.Errorf("TimeAt(2) = %v", got)
	}
}

func TestIndexAt(t *testing.T) {
	s := mkPower(t, time.Hour, 1, 2, 3)
	if i, ok := s.IndexAt(t0.Add(90 * time.Minute)); !ok || i != 1 {
		t.Errorf("IndexAt mid = %d,%v", i, ok)
	}
	if _, ok := s.IndexAt(t0.Add(-time.Minute)); ok {
		t.Error("IndexAt before start should be !ok")
	}
	if _, ok := s.IndexAt(t0.Add(5 * time.Hour)); ok {
		t.Error("IndexAt after end should be !ok")
	}
}

func TestEnergyIntegration(t *testing.T) {
	// 4 MW for 2 hours at 15-min sampling = 8 MWh.
	s := ConstantPower(t0, 15*time.Minute, 8, 4*units.Megawatt)
	if got, want := s.Energy().MWh(), 8.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("Energy = %v MWh, want %v", got, want)
	}
}

func TestPeakMinMean(t *testing.T) {
	s := mkPower(t, time.Hour, 5, 9, 3, 9, 1)
	peak, at, err := s.Peak()
	if err != nil {
		t.Fatal(err)
	}
	if peak != 9 || !at.Equal(t0.Add(time.Hour)) {
		t.Errorf("Peak = %v at %v; want 9 at first occurrence", peak, at)
	}
	mn, err := s.Min()
	if err != nil || mn != 1 {
		t.Errorf("Min = %v (%v)", mn, err)
	}
	if got := s.Mean(); math.Abs(float64(got)-5.4) > 1e-12 {
		t.Errorf("Mean = %v, want 5.4", got)
	}
}

func TestEmptySeriesErrors(t *testing.T) {
	s := mkPower(t, time.Hour)
	if _, _, err := s.Peak(); err != ErrEmpty {
		t.Errorf("Peak on empty: %v", err)
	}
	if _, err := s.Min(); err != ErrEmpty {
		t.Errorf("Min on empty: %v", err)
	}
	if _, err := s.Percentile(0.5); err != ErrEmpty {
		t.Errorf("Percentile on empty: %v", err)
	}
	if s.Mean() != 0 {
		t.Error("Mean on empty should be 0")
	}
	if s.LoadFactor() != 0 {
		t.Error("LoadFactor on empty should be 0")
	}
}

func TestLoadFactor(t *testing.T) {
	s := mkPower(t, time.Hour, 10, 10, 10, 10)
	if got := s.LoadFactor(); math.Abs(got-1) > 1e-12 {
		t.Errorf("flat load factor = %v, want 1", got)
	}
	s2 := mkPower(t, time.Hour, 10, 0, 0, 0)
	if got := s2.LoadFactor(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("peaky load factor = %v, want 0.25", got)
	}
}

func TestTopN(t *testing.T) {
	s := mkPower(t, time.Hour, 5, 9, 3, 9, 7)
	top := s.TopN(3)
	if len(top) != 3 {
		t.Fatalf("len = %d", len(top))
	}
	if top[0].Power != 9 || top[1].Power != 9 || top[2].Power != 7 {
		t.Errorf("TopN powers = %v,%v,%v", top[0].Power, top[1].Power, top[2].Power)
	}
	// Ties broken by earlier time first.
	if !top[0].Time.Before(top[1].Time) {
		t.Error("tie should order by time")
	}
	if got := s.TopN(99); len(got) != 5 {
		t.Errorf("TopN over-length = %d", len(got))
	}
	if got := s.TopN(-1); len(got) != 0 {
		t.Errorf("TopN negative = %d", len(got))
	}
}

func TestPercentile(t *testing.T) {
	s := mkPower(t, time.Hour, 1, 2, 3, 4, 5)
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-1, 1}, {2, 5},
	} {
		got, err := s.Percentile(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(float64(got)-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestWindow(t *testing.T) {
	s := mkPower(t, time.Hour, 0, 1, 2, 3, 4, 5)
	w, err := s.Window(t0.Add(2*time.Hour), t0.Add(4*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 2 || w.At(0) != 2 || w.At(1) != 3 {
		t.Errorf("window = %v", w.Samples())
	}
	// Clipping at the edges.
	w2, err := s.Window(t0.Add(-time.Hour), t0.Add(100*time.Hour))
	if err != nil || w2.Len() != 6 {
		t.Errorf("clipped window len = %d (%v)", w2.Len(), err)
	}
	// Disjoint window.
	if _, err := s.Window(t0.Add(100*time.Hour), t0.Add(101*time.Hour)); err != ErrWindowOutside {
		t.Errorf("disjoint window: %v", err)
	}
	if _, err := s.Window(t0, t0); err != ErrWindowOutside {
		t.Errorf("empty window: %v", err)
	}
	// Partial-interval start rounds up to next whole interval.
	w3, err := s.Window(t0.Add(90*time.Minute), t0.Add(4*time.Hour))
	if err != nil || w3.Len() != 2 || w3.At(0) != 2 {
		t.Errorf("partial start window = %v (%v)", w3.Samples(), err)
	}
}

func TestResamplePreservesEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]units.Power, 96) // one day at 15 min
	for i := range samples {
		samples[i] = units.Power(rng.Float64() * 10000)
	}
	s := MustNewPower(t0, 15*time.Minute, samples)
	r, err := s.Resample(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 24 {
		t.Fatalf("resampled len = %d", r.Len())
	}
	if math.Abs(float64(s.Energy()-r.Energy())) > 1e-6 {
		t.Errorf("energy changed: %v vs %v", s.Energy(), r.Energy())
	}
}

func TestResampleErrorsAndIdentity(t *testing.T) {
	s := mkPower(t, 15*time.Minute, 1, 2, 3, 4)
	if _, err := s.Resample(20 * time.Minute); err != ErrBadResample {
		t.Errorf("non-multiple: %v", err)
	}
	if _, err := s.Resample(0); err != ErrBadResample {
		t.Errorf("zero: %v", err)
	}
	same, err := s.Resample(15 * time.Minute)
	if err != nil || same != s {
		t.Error("identity resample should return the receiver")
	}
	// Trailing partial group.
	r, err := s.Resample(45 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || r.At(0) != 2 || r.At(1) != 4 {
		t.Errorf("partial group resample = %v", r.Samples())
	}
}

func TestScaleClampAddSub(t *testing.T) {
	a := mkPower(t, time.Hour, 1, 2, 3)
	b := mkPower(t, time.Hour, 10, 20, 30)
	sum, err := a.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	if sum.At(2) != 33 {
		t.Errorf("Add = %v", sum.Samples())
	}
	diff, err := b.Sub(a)
	if err != nil {
		t.Fatal(err)
	}
	if diff.At(2) != 27 {
		t.Errorf("Sub = %v", diff.Samples())
	}
	if got := a.Scale(2).At(1); got != 4 {
		t.Errorf("Scale = %v", got)
	}
	if got := b.ClampAbove(15).At(2); got != 15 {
		t.Errorf("ClampAbove = %v", got)
	}
	// Misaligned.
	c := mkPower(t, time.Minute, 1, 2, 3)
	if _, err := a.Add(c); err != ErrMisaligned {
		t.Errorf("misaligned Add: %v", err)
	}
	d := mkPower(t, time.Hour, 1, 2)
	if _, err := a.Sub(d); err != ErrMisaligned {
		t.Errorf("length-mismatched Sub: %v", err)
	}
}

func TestRamps(t *testing.T) {
	s := mkPower(t, time.Minute, 0, 600, 600, 0)
	ramps := s.Ramps()
	if len(ramps) != 3 {
		t.Fatalf("len = %d", len(ramps))
	}
	if ramps[0] != 600 || ramps[1] != 0 || ramps[2] != -600 {
		t.Errorf("ramps = %v", ramps)
	}
	if got := s.MaxRamp(); got != 600 {
		t.Errorf("MaxRamp = %v", got)
	}
	if got := mkPower(t, time.Minute, 5).Ramps(); got != nil {
		t.Errorf("single-sample ramps = %v", got)
	}
}

func TestRollingMax(t *testing.T) {
	s := mkPower(t, time.Hour, 1, 5, 2, 7, 3, 1)
	r := s.RollingMax(2)
	want := []units.Power{1, 5, 5, 7, 7, 3}
	for i, w := range want {
		if r.At(i) != w {
			t.Errorf("RollingMax[%d] = %v, want %v", i, r.At(i), w)
		}
	}
	// w<1 behaves as w=1 (identity).
	id := s.RollingMax(0)
	for i := 0; i < s.Len(); i++ {
		if id.At(i) != s.At(i) {
			t.Errorf("RollingMax(0)[%d] = %v", i, id.At(i))
		}
	}
}

func TestSplitMonths(t *testing.T) {
	// 90 days of hourly data spanning Jan, Feb, Mar 2016.
	s := ConstantPower(t0, time.Hour, 24*91, 1000)
	months := s.SplitMonths()
	if len(months) != 4 { // Jan(31) Feb(29, leap) Mar(31) + 1 hour of Apr? 31+29+31=91 days exactly; so 3 months
		// 2016: Jan 31 + Feb 29 + Mar 31 = 91 days, so exactly 3 months.
		if len(months) != 3 {
			t.Fatalf("months = %d", len(months))
		}
	}
	total := 0
	for _, m := range months {
		total += m.Len()
	}
	if total != s.Len() {
		t.Errorf("month split loses samples: %d vs %d", total, s.Len())
	}
	if months[0].Len() != 31*24 {
		t.Errorf("Jan len = %d", months[0].Len())
	}
	if got := mkPower(t, time.Hour).SplitMonths(); got != nil {
		t.Errorf("empty split = %v", got)
	}
}

func TestStringSummaries(t *testing.T) {
	s := mkPower(t, time.Hour, 1000, 2000)
	if got := s.String(); got == "" {
		t.Error("String should not be empty")
	}
	if got := mkPower(t, time.Hour).String(); got == "" {
		t.Error("empty String should not be empty")
	}
}

func TestSamplesIsCopy(t *testing.T) {
	s := mkPower(t, time.Hour, 1, 2, 3)
	cp := s.Samples()
	cp[0] = 99
	if s.At(0) != 1 {
		t.Error("Samples() must return a copy")
	}
}

func TestPriceSeriesBasics(t *testing.T) {
	p := MustNewPrice(t0, time.Hour, []units.EnergyPrice{0.05, 0.10, 0.20})
	if p.Len() != 3 || p.Interval() != time.Hour || !p.Start().Equal(t0) {
		t.Error("basic accessors wrong")
	}
	if !p.End().Equal(t0.Add(3 * time.Hour)) {
		t.Errorf("End = %v", p.End())
	}
	if p.At(1) != 0.10 {
		t.Errorf("At(1) = %v", p.At(1))
	}
	if !p.TimeAt(2).Equal(t0.Add(2 * time.Hour)) {
		t.Errorf("TimeAt(2) = %v", p.TimeAt(2))
	}
	if got := p.Mean(); math.Abs(float64(got)-0.35/3) > 1e-12 {
		t.Errorf("Mean = %v", got)
	}
	if _, err := NewPrice(t0, 0, nil); err != ErrBadInterval {
		t.Errorf("bad interval: %v", err)
	}
}

func TestPriceAtClamping(t *testing.T) {
	p := MustNewPrice(t0, time.Hour, []units.EnergyPrice{0.05, 0.10, 0.20})
	if got, ok := p.PriceAt(t0.Add(30 * time.Minute)); !ok || got != 0.05 {
		t.Errorf("inside = %v,%v", got, ok)
	}
	if got, ok := p.PriceAt(t0.Add(-time.Hour)); ok || got != 0.05 {
		t.Errorf("before = %v,%v", got, ok)
	}
	if got, ok := p.PriceAt(t0.Add(10 * time.Hour)); ok || got != 0.20 {
		t.Errorf("after = %v,%v", got, ok)
	}
	empty := MustNewPrice(t0, time.Hour, nil)
	if _, ok := empty.PriceAt(t0); ok {
		t.Error("empty PriceAt should be !ok")
	}
	if empty.Mean() != 0 {
		t.Error("empty Mean should be 0")
	}
}

func TestConstantConstructors(t *testing.T) {
	s := ConstantPower(t0, time.Hour, 5, 42)
	for i := 0; i < 5; i++ {
		if s.At(i) != 42 {
			t.Fatalf("sample %d = %v", i, s.At(i))
		}
	}
	p := ConstantPrice(t0, time.Hour, 4, 0.07)
	for i := 0; i < 4; i++ {
		if p.At(i) != 0.07 {
			t.Fatalf("price %d = %v", i, p.At(i))
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewPower should panic on bad interval")
		}
	}()
	MustNewPower(t0, 0, nil)
}

func TestMustNewPricePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewPrice should panic on bad interval")
		}
	}()
	MustNewPrice(t0, -time.Second, nil)
}

// Property: integration is linear — Energy(a+b) == Energy(a)+Energy(b).
func TestQuickEnergyLinear(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		a := make([]units.Power, len(raw))
		b := make([]units.Power, len(raw))
		for i, v := range raw {
			a[i] = units.Power(v % 10000)
			b[i] = units.Power((v / 3) % 10000)
		}
		sa := MustNewPower(t0, 15*time.Minute, a)
		sb := MustNewPower(t0, 15*time.Minute, b)
		sum, err := sa.Add(sb)
		if err != nil {
			return false
		}
		return math.Abs(float64(sum.Energy()-(sa.Energy()+sb.Energy()))) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Peak of a clamped series never exceeds the clamp limit, and
// energy never increases under clamping.
func TestQuickClampInvariants(t *testing.T) {
	f := func(raw []uint16, limit uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]units.Power, len(raw))
		for i, v := range raw {
			samples[i] = units.Power(v)
		}
		s := MustNewPower(t0, 15*time.Minute, samples)
		c := s.ClampAbove(units.Power(limit))
		peak, _, err := c.Peak()
		if err != nil {
			return false
		}
		return peak <= units.Power(limit) && c.Energy() <= s.Energy()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: resampling to any divisor multiple preserves energy when the
// length divides evenly.
func TestQuickResampleEnergy(t *testing.T) {
	f := func(raw []uint16) bool {
		n := (len(raw) / 4) * 4
		if n == 0 {
			return true
		}
		samples := make([]units.Power, n)
		for i := 0; i < n; i++ {
			samples[i] = units.Power(raw[i])
		}
		s := MustNewPower(t0, 15*time.Minute, samples)
		r, err := s.Resample(time.Hour)
		if err != nil {
			return false
		}
		return math.Abs(float64(s.Energy()-r.Energy())) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: TopN(1) equals Peak.
func TestQuickTopNPeak(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]units.Power, len(raw))
		for i, v := range raw {
			samples[i] = units.Power(v)
		}
		s := MustNewPower(t0, time.Hour, samples)
		peak, at, err := s.Peak()
		if err != nil {
			return false
		}
		top := s.TopN(1)
		return len(top) == 1 && top[0].Power == peak && top[0].Time.Equal(at)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: RollingMax is pointwise ≥ the original and monotone in window.
func TestQuickRollingMaxDominates(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]units.Power, len(raw))
		for i, v := range raw {
			samples[i] = units.Power(v)
		}
		s := MustNewPower(t0, time.Hour, samples)
		r2 := s.RollingMax(2)
		r4 := s.RollingMax(4)
		for i := 0; i < s.Len(); i++ {
			if r2.At(i) < s.At(i) || r4.At(i) < r2.At(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEnergyIntegration(b *testing.B) {
	s := ConstantPower(t0, 15*time.Minute, 35040, 12*units.Megawatt) // one year
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Energy()
	}
}

func BenchmarkTopN(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	samples := make([]units.Power, 35040)
	for i := range samples {
		samples[i] = units.Power(rng.Float64() * 20000)
	}
	s := MustNewPower(t0, 15*time.Minute, samples)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.TopN(3)
	}
}
