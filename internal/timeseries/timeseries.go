// Package timeseries implements regular-interval time series as used in
// utility metering and facility power monitoring: a start instant, a fixed
// sampling interval, and a dense slice of samples.
//
// The package provides two concrete series types sharing one layout:
// PowerSeries (kW samples, the facility load profile a revenue meter
// records) and PriceSeries (currency/kWh samples, e.g. a real-time tariff
// feed). Common operations — integration of power to energy, peak
// extraction, resampling to a coarser interval, windowing by wall-clock
// time, ramp-rate analysis, percentiles — are the primitives every higher
// layer (billing, demand charges, DR evaluation, grid simulation) builds on.
//
// Utility revenue metering is conventionally done on 15-minute intervals;
// that is the package's DefaultInterval, but any positive interval works.
package timeseries

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/units"
)

// DefaultInterval is the conventional utility metering interval.
const DefaultInterval = 15 * time.Minute

// Errors returned by series constructors and combinators.
var (
	ErrBadInterval   = errors.New("timeseries: interval must be positive")
	ErrEmpty         = errors.New("timeseries: series has no samples")
	ErrMisaligned    = errors.New("timeseries: series are not aligned")
	ErrBadResample   = errors.New("timeseries: target interval must be a positive multiple of the source interval")
	ErrWindowOutside = errors.New("timeseries: window does not intersect series")
)

// PowerSeries is a dense, regular-interval electrical load profile. The
// sample at index i is the average power drawn over the half-open interval
// [Start+i*Interval, Start+(i+1)*Interval).
type PowerSeries struct {
	start    time.Time
	interval time.Duration
	samples  []units.Power
}

// NewPower creates a PowerSeries. The sample slice is used directly (not
// copied); callers must not mutate it afterwards.
func NewPower(start time.Time, interval time.Duration, samples []units.Power) (*PowerSeries, error) {
	if interval <= 0 {
		return nil, ErrBadInterval
	}
	return &PowerSeries{start: start, interval: interval, samples: samples}, nil
}

// MustNewPower is NewPower that panics on error, for static construction.
func MustNewPower(start time.Time, interval time.Duration, samples []units.Power) *PowerSeries {
	s, err := NewPower(start, interval, samples)
	if err != nil {
		panic(err)
	}
	return s
}

// ConstantPower returns a series of n samples all equal to p.
func ConstantPower(start time.Time, interval time.Duration, n int, p units.Power) *PowerSeries {
	samples := make([]units.Power, n)
	for i := range samples {
		samples[i] = p
	}
	return MustNewPower(start, interval, samples)
}

// Start returns the instant the first sample interval begins.
func (s *PowerSeries) Start() time.Time { return s.start }

// Interval returns the sampling interval.
func (s *PowerSeries) Interval() time.Duration { return s.interval }

// Len returns the number of samples.
func (s *PowerSeries) Len() int { return len(s.samples) }

// End returns the instant just after the last sample interval.
func (s *PowerSeries) End() time.Time {
	return s.start.Add(time.Duration(len(s.samples)) * s.interval)
}

// At returns the i-th sample.
func (s *PowerSeries) At(i int) units.Power { return s.samples[i] }

// TimeAt returns the start instant of the i-th sample interval.
func (s *PowerSeries) TimeAt(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.interval)
}

// Samples returns a copy of the underlying samples.
func (s *PowerSeries) Samples() []units.Power {
	out := make([]units.Power, len(s.samples))
	copy(out, s.samples)
	return out
}

// IndexAt returns the sample index whose interval contains instant t, and
// whether t falls inside the series' span.
func (s *PowerSeries) IndexAt(t time.Time) (int, bool) {
	if t.Before(s.start) {
		return 0, false
	}
	i := int(t.Sub(s.start) / s.interval)
	if i >= len(s.samples) {
		return len(s.samples) - 1, false
	}
	return i, true
}

// Energy integrates the whole series to total consumed energy.
func (s *PowerSeries) Energy() units.Energy {
	var kwh float64
	h := s.interval.Hours()
	for _, p := range s.samples {
		kwh += float64(p) * h
	}
	return units.Energy(kwh)
}

// Peak returns the maximum sample and the start time of its interval.
// It returns an error for an empty series.
func (s *PowerSeries) Peak() (units.Power, time.Time, error) {
	if len(s.samples) == 0 {
		return 0, time.Time{}, ErrEmpty
	}
	best, at := s.samples[0], 0
	for i, p := range s.samples {
		if p > best {
			best, at = p, i
		}
	}
	return best, s.TimeAt(at), nil
}

// Min returns the minimum sample. It returns an error for an empty series.
func (s *PowerSeries) Min() (units.Power, error) {
	if len(s.samples) == 0 {
		return 0, ErrEmpty
	}
	best := s.samples[0]
	for _, p := range s.samples {
		if p < best {
			best = p
		}
	}
	return best, nil
}

// Mean returns the average power across the series (0 for empty).
func (s *PowerSeries) Mean() units.Power {
	if len(s.samples) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.samples {
		sum += float64(p)
	}
	return units.Power(sum / float64(len(s.samples)))
}

// LoadFactor is the ratio of average to peak power, the standard utility
// measure of how "peaky" a load is (1.0 = perfectly flat). The paper's
// demand-charge discussion (and Xu & Li's result it cites) is about how
// cost share varies with the inverse of this quantity.
func (s *PowerSeries) LoadFactor() float64 {
	peak, _, err := s.Peak()
	if err != nil || peak <= 0 {
		return 0
	}
	return float64(s.Mean()) / float64(peak)
}

// TopN returns the n largest samples in descending order, with their
// interval start times. If the series has fewer than n samples, all are
// returned. Demand charges of the "three 15 MW peaks" kind described in
// the paper bill on exactly this quantity.
func (s *PowerSeries) TopN(n int) []PeakSample {
	idx := make([]int, len(s.samples))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if s.samples[idx[a]] != s.samples[idx[b]] {
			return s.samples[idx[a]] > s.samples[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if n > len(idx) {
		n = len(idx)
	}
	if n < 0 {
		n = 0
	}
	out := make([]PeakSample, n)
	for i := 0; i < n; i++ {
		out[i] = PeakSample{Power: s.samples[idx[i]], Time: s.TimeAt(idx[i])}
	}
	return out
}

// PeakSample is one ranked peak observation.
type PeakSample struct {
	Power units.Power
	Time  time.Time
}

// Percentile returns the q-quantile (0 ≤ q ≤ 1) of the samples using
// linear interpolation between order statistics. It returns an error for
// an empty series.
func (s *PowerSeries) Percentile(q float64) (units.Power, error) {
	if len(s.samples) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := make([]float64, len(s.samples))
	for i, p := range s.samples {
		sorted[i] = float64(p)
	}
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return units.Power(sorted[lo]), nil
	}
	frac := pos - float64(lo)
	return units.Power(sorted[lo]*(1-frac) + sorted[hi]*frac), nil
}

// Window returns the sub-series covering [from, to). The bounds are
// clipped to the series span; an error is returned if the window does not
// intersect the series at all. The returned series shares storage.
func (s *PowerSeries) Window(from, to time.Time) (*PowerSeries, error) {
	if !to.After(from) {
		return nil, ErrWindowOutside
	}
	lo := 0
	if from.After(s.start) {
		lo = int((from.Sub(s.start) + s.interval - 1) / s.interval)
	}
	hi := len(s.samples)
	if to.Before(s.End()) {
		hi = int(to.Sub(s.start) / s.interval)
	}
	if lo >= hi || lo >= len(s.samples) || hi <= 0 {
		return nil, ErrWindowOutside
	}
	return &PowerSeries{
		start:    s.TimeAt(lo),
		interval: s.interval,
		samples:  s.samples[lo:hi],
	}, nil
}

// Resample aggregates to a coarser interval that must be an integer
// multiple of the current one, averaging the samples inside each new
// interval (energy-preserving for complete groups). A trailing partial
// group is averaged over the samples present.
func (s *PowerSeries) Resample(target time.Duration) (*PowerSeries, error) {
	if target <= 0 || target%s.interval != 0 {
		return nil, ErrBadResample
	}
	k := int(target / s.interval)
	if k == 1 {
		return s, nil
	}
	n := (len(s.samples) + k - 1) / k
	out := make([]units.Power, 0, n)
	for i := 0; i < len(s.samples); i += k {
		end := i + k
		if end > len(s.samples) {
			end = len(s.samples)
		}
		var sum float64
		for _, p := range s.samples[i:end] {
			sum += float64(p)
		}
		out = append(out, units.Power(sum/float64(end-i)))
	}
	return &PowerSeries{start: s.start, interval: target, samples: out}, nil
}

// Map returns a new series with f applied to every sample.
func (s *PowerSeries) Map(f func(units.Power) units.Power) *PowerSeries {
	out := make([]units.Power, len(s.samples))
	for i, p := range s.samples {
		out[i] = f(p)
	}
	return &PowerSeries{start: s.start, interval: s.interval, samples: out}
}

// Scale returns the series multiplied by a constant factor.
func (s *PowerSeries) Scale(f float64) *PowerSeries {
	return s.Map(func(p units.Power) units.Power { return units.Power(float64(p) * f) })
}

// ClampAbove caps all samples at limit (power capping).
func (s *PowerSeries) ClampAbove(limit units.Power) *PowerSeries {
	return s.Map(func(p units.Power) units.Power {
		if p > limit {
			return limit
		}
		return p
	})
}

// Add returns the pointwise sum of two aligned series (same start,
// interval and length).
func (s *PowerSeries) Add(o *PowerSeries) (*PowerSeries, error) {
	if err := s.checkAligned(o); err != nil {
		return nil, err
	}
	out := make([]units.Power, len(s.samples))
	for i := range out {
		out[i] = s.samples[i] + o.samples[i]
	}
	return &PowerSeries{start: s.start, interval: s.interval, samples: out}, nil
}

// Sub returns the pointwise difference s − o of two aligned series.
func (s *PowerSeries) Sub(o *PowerSeries) (*PowerSeries, error) {
	if err := s.checkAligned(o); err != nil {
		return nil, err
	}
	out := make([]units.Power, len(s.samples))
	for i := range out {
		out[i] = s.samples[i] - o.samples[i]
	}
	return &PowerSeries{start: s.start, interval: s.interval, samples: out}, nil
}

func (s *PowerSeries) checkAligned(o *PowerSeries) error {
	if !s.start.Equal(o.start) || s.interval != o.interval || len(s.samples) != len(o.samples) {
		return ErrMisaligned
	}
	return nil
}

// Ramps returns the per-step ramp rates between consecutive samples
// (length Len()-1). The i-th element is the ramp from sample i to i+1.
func (s *PowerSeries) Ramps() []units.RampRate {
	if len(s.samples) < 2 {
		return nil
	}
	out := make([]units.RampRate, len(s.samples)-1)
	for i := 0; i+1 < len(s.samples); i++ {
		out[i] = units.RampBetween(s.samples[i], s.samples[i+1], s.interval)
	}
	return out
}

// MaxRamp returns the largest absolute ramp rate in the series, or zero
// for series with fewer than two samples.
func (s *PowerSeries) MaxRamp() units.RampRate {
	var best float64
	for _, r := range s.Ramps() {
		if a := math.Abs(float64(r)); a > best {
			best = a
		}
	}
	return units.RampRate(best)
}

// RollingMax returns a series where each sample is the maximum of the
// window of w samples ending at that position (w ≥ 1). Used for
// continuous powerband monitoring.
func (s *PowerSeries) RollingMax(w int) *PowerSeries {
	if w < 1 {
		w = 1
	}
	out := make([]units.Power, len(s.samples))
	// Monotonic deque of indices with decreasing values.
	deque := make([]int, 0, w)
	for i, p := range s.samples {
		for len(deque) > 0 && s.samples[deque[len(deque)-1]] <= p {
			deque = deque[:len(deque)-1]
		}
		deque = append(deque, i)
		if deque[0] <= i-w {
			deque = deque[1:]
		}
		out[i] = s.samples[deque[0]]
	}
	return &PowerSeries{start: s.start, interval: s.interval, samples: out}
}

// SplitMonths partitions the series into calendar-month sub-series in the
// series' location, in chronological order. Partial months at the edges
// are included as-is. This is the canonical billing-period split.
func (s *PowerSeries) SplitMonths() []*PowerSeries {
	if len(s.samples) == 0 {
		return nil
	}
	var out []*PowerSeries
	cur := 0
	curKey := monthKey(s.TimeAt(0))
	for i := 1; i < len(s.samples); i++ {
		if k := monthKey(s.TimeAt(i)); k != curKey {
			out = append(out, &PowerSeries{start: s.TimeAt(cur), interval: s.interval, samples: s.samples[cur:i]})
			cur, curKey = i, k
		}
	}
	out = append(out, &PowerSeries{start: s.TimeAt(cur), interval: s.interval, samples: s.samples[cur:]})
	return out
}

func monthKey(t time.Time) int {
	return t.Year()*12 + int(t.Month()) - 1
}

// String summarizes the series.
func (s *PowerSeries) String() string {
	peak, _, err := s.Peak()
	if err != nil {
		return fmt.Sprintf("PowerSeries[empty, start %s]", s.start.Format(time.RFC3339))
	}
	return fmt.Sprintf("PowerSeries[%d×%s from %s, mean %s, peak %s]",
		len(s.samples), s.interval, s.start.Format("2006-01-02 15:04"), s.Mean(), peak)
}

// PriceSeries is a dense, regular-interval energy price feed, e.g. the
// real-time price stream behind a dynamically variable tariff.
type PriceSeries struct {
	start    time.Time
	interval time.Duration
	samples  []units.EnergyPrice
}

// NewPrice creates a PriceSeries; the samples slice is used directly.
func NewPrice(start time.Time, interval time.Duration, samples []units.EnergyPrice) (*PriceSeries, error) {
	if interval <= 0 {
		return nil, ErrBadInterval
	}
	return &PriceSeries{start: start, interval: interval, samples: samples}, nil
}

// MustNewPrice is NewPrice that panics on error.
func MustNewPrice(start time.Time, interval time.Duration, samples []units.EnergyPrice) *PriceSeries {
	s, err := NewPrice(start, interval, samples)
	if err != nil {
		panic(err)
	}
	return s
}

// ConstantPrice returns a flat price series of n samples.
func ConstantPrice(start time.Time, interval time.Duration, n int, p units.EnergyPrice) *PriceSeries {
	samples := make([]units.EnergyPrice, n)
	for i := range samples {
		samples[i] = p
	}
	return MustNewPrice(start, interval, samples)
}

// Start returns the instant the first sample interval begins.
func (s *PriceSeries) Start() time.Time { return s.start }

// Interval returns the sampling interval.
func (s *PriceSeries) Interval() time.Duration { return s.interval }

// Len returns the number of samples.
func (s *PriceSeries) Len() int { return len(s.samples) }

// End returns the instant just after the last sample interval.
func (s *PriceSeries) End() time.Time {
	return s.start.Add(time.Duration(len(s.samples)) * s.interval)
}

// At returns the i-th sample.
func (s *PriceSeries) At(i int) units.EnergyPrice { return s.samples[i] }

// TimeAt returns the start instant of the i-th sample interval.
func (s *PriceSeries) TimeAt(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.interval)
}

// PriceAt returns the price in effect at instant t. Instants before the
// series clamp to the first sample; instants at or after the end clamp to
// the last. ok reports whether t was inside the span.
func (s *PriceSeries) PriceAt(t time.Time) (price units.EnergyPrice, ok bool) {
	if len(s.samples) == 0 {
		return 0, false
	}
	if t.Before(s.start) {
		return s.samples[0], false
	}
	i := int(t.Sub(s.start) / s.interval)
	if i >= len(s.samples) {
		return s.samples[len(s.samples)-1], false
	}
	return s.samples[i], true
}

// Mean returns the average price (0 for empty).
func (s *PriceSeries) Mean() units.EnergyPrice {
	if len(s.samples) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.samples {
		sum += float64(p)
	}
	return units.EnergyPrice(sum / float64(len(s.samples)))
}
