// Package demand implements the kW branch of the paper's contract
// typology: contract components mapped to the magnitude of peak power
// consumption rather than to energy.
//
// Two component families exist, exactly as the paper describes (§3.2.2):
//
//   - Demand charges: part of the electricity price is determined by the
//     peak consumption across a billing period. The paper's example —
//     "three 15 MW peaks in a billing period" billed after the period,
//     falling when the next period peaks at 12 MW — is the NPeak method
//     with N=3. Single-peak and annual-ratchet variants are also
//     implemented, since US industrial tariffs commonly use both.
//
//   - Powerbands: consumption boundaries (an upper and optionally a lower
//     limit) with continuous sampling; consumption outside the band incurs
//     high additional cost. The paper characterizes powerbands as "a
//     variation over demand charges with upper- and lower limit and
//     continuous sampling ... as opposed to measuring a fixed number of
//     peaks".
//
// Both encourage demand-side management but are not real-time DR programs.
package demand

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/timeseries"
	"repro/internal/units"
)

// Method selects how a demand charge derives billed demand from a load
// profile.
type Method int

// Demand-charge methods.
const (
	// SinglePeak bills the single highest metered interval of the period.
	SinglePeak Method = iota
	// NPeakAverage bills the average of the N highest metered intervals
	// (the paper's "three 15 MW peaks" formulation).
	NPeakAverage
	// Ratchet bills the greater of this period's peak and a fraction of
	// the highest peak seen in a trailing history (typically 11 months) —
	// one bad month haunts the whole year.
	Ratchet
)

var methodNames = map[Method]string{
	SinglePeak:   "single-peak",
	NPeakAverage: "n-peak-average",
	Ratchet:      "ratchet",
}

// String returns the method name.
func (m Method) String() string {
	if n, ok := methodNames[m]; ok {
		return n
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Charge is a demand-charge contract component.
type Charge struct {
	// Price per kW of billed demand per billing period.
	Price units.DemandPrice
	// Method selects how billed demand is derived.
	Method Method
	// NPeaks is the N for NPeakAverage (ignored otherwise; default 3).
	NPeaks int
	// RatchetFraction is the fraction of the historical peak that
	// ratchets into the current period (ignored unless Method==Ratchet;
	// typical utility value 0.8).
	RatchetFraction float64
}

// NewCharge validates and returns a demand charge.
func NewCharge(price units.DemandPrice, method Method, nPeaks int, ratchetFraction float64) (*Charge, error) {
	if price < 0 {
		return nil, errors.New("demand: price must be non-negative")
	}
	switch method {
	case SinglePeak:
	case NPeakAverage:
		if nPeaks <= 0 {
			return nil, errors.New("demand: NPeakAverage requires NPeaks >= 1")
		}
	case Ratchet:
		if ratchetFraction <= 0 || ratchetFraction > 1 {
			return nil, errors.New("demand: ratchet fraction must be in (0, 1]")
		}
	default:
		return nil, fmt.Errorf("demand: unknown method %d", int(method))
	}
	return &Charge{Price: price, Method: method, NPeaks: nPeaks, RatchetFraction: ratchetFraction}, nil
}

// MustNewCharge is NewCharge that panics on error.
func MustNewCharge(price units.DemandPrice, method Method, nPeaks int, ratchetFraction float64) *Charge {
	c, err := NewCharge(price, method, nPeaks, ratchetFraction)
	if err != nil {
		panic(err)
	}
	return c
}

// SimpleCharge returns the paper's canonical 3-peak-average charge.
func SimpleCharge(price units.DemandPrice) *Charge {
	return MustNewCharge(price, NPeakAverage, 3, 0)
}

// BilledDemand derives the billed demand for one period's load profile.
// historicalPeak is the highest peak over the ratchet history (pass 0 when
// unknown or for non-ratchet methods).
func (c *Charge) BilledDemand(load *timeseries.PowerSeries, historicalPeak units.Power) units.Power {
	if load.Len() == 0 {
		return 0
	}
	peak, _, err := load.Peak()
	if err != nil {
		return 0
	}
	if peak < 0 {
		peak = 0 // net export does not earn negative demand charges
	}
	switch c.Method {
	case SinglePeak:
		return peak
	case NPeakAverage:
		n := c.NPeaks
		if n <= 0 {
			n = 3
		}
		top := load.TopN(n)
		var sum float64
		for _, p := range top {
			v := float64(p.Power)
			if v < 0 {
				v = 0
			}
			sum += v
		}
		return units.Power(sum / float64(len(top)))
	case Ratchet:
		floor := units.Power(float64(historicalPeak) * c.RatchetFraction)
		return units.MaxPower(peak, floor)
	default:
		return peak
	}
}

// UsesHistoricalPeak reports whether the charge's billed demand reads
// the period's historical peak — only the ratchet method does. This is
// the billing.HistoricalPeakUser hook the incremental month evaluator
// uses to decide whether touching one month can re-price later ones.
func (c *Charge) UsesHistoricalPeak() bool { return c.Method == Ratchet }

// Describe returns a one-line description.
func (c *Charge) Describe() string {
	switch c.Method {
	case NPeakAverage:
		n := c.NPeaks
		if n <= 0 {
			n = 3
		}
		return fmt.Sprintf("demand charge @ %s on avg of top %d peaks", c.Price, n)
	case Ratchet:
		return fmt.Sprintf("demand charge @ %s with %.0f%% ratchet", c.Price, c.RatchetFraction*100)
	default:
		return fmt.Sprintf("demand charge @ %s on single peak", c.Price)
	}
}

// Powerband is the upper/lower consumption-boundary component. Samples
// above Upper pay OverPenalty per kWh of excess energy; samples below
// Lower (when HasLower) pay UnderPenalty per kWh of shortfall energy.
// Pricing excursions by excess energy reflects the continuous-sampling
// character the paper attributes to powerbands.
type Powerband struct {
	// Upper is the maximum allowed power draw.
	Upper units.Power
	// Lower is the minimum allowed draw; only enforced when HasLower.
	Lower    units.Power
	HasLower bool
	// OverPenalty prices energy drawn above Upper.
	OverPenalty units.EnergyPrice
	// UnderPenalty prices the shortfall below Lower.
	UnderPenalty units.EnergyPrice
}

// NewPowerband validates and returns a powerband with both limits.
func NewPowerband(lower, upper units.Power, underPenalty, overPenalty units.EnergyPrice) (*Powerband, error) {
	if upper <= 0 {
		return nil, errors.New("demand: powerband upper limit must be positive")
	}
	if lower < 0 || lower >= upper {
		return nil, errors.New("demand: powerband lower limit must be in [0, upper)")
	}
	if overPenalty < 0 || underPenalty < 0 {
		return nil, errors.New("demand: powerband penalties must be non-negative")
	}
	return &Powerband{
		Upper: upper, Lower: lower, HasLower: true,
		OverPenalty: overPenalty, UnderPenalty: underPenalty,
	}, nil
}

// NewUpperPowerband returns a powerband with only an upper limit.
func NewUpperPowerband(upper units.Power, overPenalty units.EnergyPrice) (*Powerband, error) {
	if upper <= 0 {
		return nil, errors.New("demand: powerband upper limit must be positive")
	}
	if overPenalty < 0 {
		return nil, errors.New("demand: powerband penalty must be non-negative")
	}
	return &Powerband{Upper: upper, OverPenalty: overPenalty}, nil
}

// MustNewPowerband is NewPowerband that panics on error.
func MustNewPowerband(lower, upper units.Power, underPenalty, overPenalty units.EnergyPrice) *Powerband {
	b, err := NewPowerband(lower, upper, underPenalty, overPenalty)
	if err != nil {
		panic(err)
	}
	return b
}

// Excursion is one contiguous run of samples outside the band.
type Excursion struct {
	// Start is the first out-of-band interval's start instant.
	Start time.Time
	// Duration of the run.
	Duration time.Duration
	// Above is true for an over-limit run, false for under-limit.
	Above bool
	// WorstPower is the most extreme sample in the run.
	WorstPower units.Power
	// ExcessEnergy is the integrated energy outside the band.
	ExcessEnergy units.Energy
}

// Violations scans a load profile and returns every excursion outside the
// band in chronological order.
func (b *Powerband) Violations(load *timeseries.PowerSeries) []Excursion {
	var out []Excursion
	var cur *Excursion
	h := load.Interval().Hours()
	flush := func() {
		if cur != nil {
			out = append(out, *cur)
			cur = nil
		}
	}
	for i := 0; i < load.Len(); i++ {
		p := load.At(i)
		var above bool
		var excess units.Energy
		switch {
		case p > b.Upper:
			above = true
			excess = units.Energy(float64(p-b.Upper) * h)
		case b.HasLower && p < b.Lower:
			above = false
			excess = units.Energy(float64(b.Lower-p) * h)
		default:
			flush()
			continue
		}
		if cur == nil || cur.Above != above {
			flush()
			cur = &Excursion{Start: load.TimeAt(i), Above: above, WorstPower: p}
		}
		cur.Duration += load.Interval()
		cur.ExcessEnergy += excess
		if above && p > cur.WorstPower {
			cur.WorstPower = p
		}
		if !above && p < cur.WorstPower {
			cur.WorstPower = p
		}
	}
	flush()
	return out
}

// CostOfViolations prices an excursion list already produced by
// Violations, letting callers that also need the excursions avoid a
// second scan of the load profile.
func (b *Powerband) CostOfViolations(vs []Excursion) units.Money {
	var total units.Money
	for _, v := range vs {
		if v.Above {
			total += b.OverPenalty.Cost(v.ExcessEnergy)
		} else {
			total += b.UnderPenalty.Cost(v.ExcessEnergy)
		}
	}
	return total
}

// ComplianceRatio returns the fraction of samples inside the band
// (1.0 for an empty profile: no samples, no violations).
func (b *Powerband) ComplianceRatio(load *timeseries.PowerSeries) float64 {
	if load.Len() == 0 {
		return 1
	}
	in := 0
	for i := 0; i < load.Len(); i++ {
		p := load.At(i)
		if p <= b.Upper && (!b.HasLower || p >= b.Lower) {
			in++
		}
	}
	return float64(in) / float64(load.Len())
}

// Describe returns a one-line description.
func (b *Powerband) Describe() string {
	if b.HasLower {
		return fmt.Sprintf("powerband [%s, %s] (under %s, over %s)",
			b.Lower, b.Upper, b.UnderPenalty, b.OverPenalty)
	}
	return fmt.Sprintf("powerband [0, %s] (over %s)", b.Upper, b.OverPenalty)
}
