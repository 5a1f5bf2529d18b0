package demand

// Columnar kernels for the kW branch. Both components need only
// O(1)/O(N-peaks) state, so their scanners walk contiguous sample
// chunks directly, with a fast single-peak loop when no top-N tracker
// is needed. Arithmetic is kept operation-for-operation identical to
// the legacy oracle's BilledDemand and Violations/CostOfViolations: the
// N-peak tracker keeps the same (power desc, earlier-index-wins) order
// TopN sorts by and sums the clamped peaks in that order; the excursion
// tracker accumulates excess energy per contiguous run and rounds once
// per excursion, as CostOfViolations does.

import (
	"strconv"
	"time"

	"repro/internal/billing"
	"repro/internal/units"
)

// CompileKernel compiles the demand charge. The line-item description
// is period-invariant, so it renders once here.
func (c *Charge) CompileKernel() billing.Kernel {
	n := 0
	if c.Method == NPeakAverage {
		n = c.NPeaks
		if n <= 0 {
			n = 3
		}
	}
	return &chargeKernel{charge: c, desc: c.Describe(), n: n}
}

type chargeKernel struct {
	charge *Charge
	desc   string
	n      int
}

func (k *chargeKernel) NewScanner() billing.Scanner {
	s := &chargeScanner{charge: k.charge, desc: k.desc, n: k.n}
	if k.n > 0 {
		s.top = make([]peakEntry, 0, k.n)
	}
	return s
}

// chargeScanner tracks the running peak and, for N-peak averages, the
// top N samples. top holds up to n entries ordered by (power desc,
// index asc) — the exact order TopN sorts the whole series by.
type chargeScanner struct {
	charge     *Charge
	desc       string
	historical units.Power

	seen bool
	peak units.Power

	top []peakEntry
	n   int

	buf []byte
}

func (s *chargeScanner) Begin(pctx *billing.PeriodContext, _ time.Time, _ time.Duration, _ int) {
	s.historical = pctx.HistoricalPeak
	s.seen = false
	s.peak = 0
	s.top = s.top[:0]
}

func (s *chargeScanner) Scan(samples []units.Power, base int) {
	if len(samples) == 0 {
		return
	}
	if s.n == 0 {
		// Single-peak and ratchet methods only need the running maximum.
		peak := s.peak
		if !s.seen {
			peak = samples[0]
			s.seen = true
		}
		for _, p := range samples {
			if p > peak {
				peak = p
			}
		}
		s.peak = peak
		return
	}
	for j, p := range samples {
		if !s.seen || p > s.peak {
			s.peak = p
			s.seen = true
		}
		if len(s.top) == s.n {
			// Full: the new sample displaces the weakest entry only when
			// it strictly beats it (equal power loses — the earlier index
			// wins, matching TopN's tie-break).
			if p <= s.top[s.n-1].power {
				continue
			}
			s.top = s.top[:s.n-1]
		}
		// Insert keeping (power desc, index asc): among equal powers the
		// new sample's larger index places it last.
		at := len(s.top)
		for at > 0 && s.top[at-1].power < p {
			at--
		}
		s.top = append(s.top, peakEntry{})
		copy(s.top[at+1:], s.top[at:])
		s.top[at] = peakEntry{power: p, index: base + j}
	}
}

// billed replicates Charge.BilledDemand on the scanned state.
func (s *chargeScanner) billed() units.Power {
	if !s.seen {
		return 0
	}
	peak := s.peak
	if peak < 0 {
		peak = 0
	}
	switch s.charge.Method {
	case SinglePeak:
		return peak
	case NPeakAverage:
		var sum float64
		for _, e := range s.top {
			v := float64(e.power)
			if v < 0 {
				v = 0
			}
			sum += v
		}
		return units.Power(sum / float64(len(s.top)))
	case Ratchet:
		floor := units.Power(float64(s.historical) * s.charge.RatchetFraction)
		return units.MaxPower(peak, floor)
	default:
		return peak
	}
}

func (s *chargeScanner) AppendLines(dst []billing.LineItem) []billing.LineItem {
	billed := s.billed()
	s.buf = units.AppendPower(s.buf[:0], billed)
	return append(dst, billing.LineItem{
		Class:       billing.ClassDemandCharge,
		Description: s.desc,
		Quantity:    string(s.buf),
		Amount:      s.charge.Price.Cost(billed),
	})
}

// CompileKernel compiles the powerband excursion tracker.
func (b *Powerband) CompileKernel() billing.Kernel {
	return &bandKernel{band: b, desc: b.Describe()}
}

type bandKernel struct {
	band *Powerband
	desc string
}

func (k *bandKernel) NewScanner() billing.Scanner {
	return &bandScanner{band: k.band, desc: k.desc}
}

// bandScanner mirrors Violations' state: excess energy accumulates per
// contiguous out-of-band run and rounds once per excursion at flush.
// Runs straddle chunk and month-block boundaries unflushed.
type bandScanner struct {
	band *Powerband
	desc string
	h    float64

	inRun  bool
	above  bool
	excess units.Energy

	count int
	cost  units.Money

	buf []byte
}

func (s *bandScanner) Begin(_ *billing.PeriodContext, _ time.Time, interval time.Duration, _ int) {
	s.h = interval.Hours()
	s.inRun = false
	s.excess = 0
	s.count = 0
	s.cost = 0
}

func (s *bandScanner) flush() {
	if !s.inRun {
		return
	}
	if s.above {
		s.cost += s.band.OverPenalty.Cost(s.excess)
	} else {
		s.cost += s.band.UnderPenalty.Cost(s.excess)
	}
	s.count++
	s.inRun = false
	s.excess = 0
}

func (s *bandScanner) Scan(samples []units.Power, _ int) {
	upper := s.band.Upper
	lower := s.band.Lower
	hasLower := s.band.HasLower
	h := s.h
	for _, p := range samples {
		var above bool
		var excess units.Energy
		switch {
		case p > upper:
			above = true
			excess = units.Energy(float64(p-upper) * h)
		case hasLower && p < lower:
			above = false
			excess = units.Energy(float64(lower-p) * h)
		default:
			s.flush()
			continue
		}
		if !s.inRun || s.above != above {
			s.flush()
			s.inRun = true
			s.above = above
		}
		s.excess += excess
	}
}

func (s *bandScanner) AppendLines(dst []billing.LineItem) []billing.LineItem {
	s.flush()
	s.buf = strconv.AppendInt(s.buf[:0], int64(s.count), 10)
	s.buf = append(s.buf, " excursions"...)
	return append(dst, billing.LineItem{
		Class:       billing.ClassPowerband,
		Description: s.desc,
		Quantity:    string(s.buf),
		Amount:      s.cost,
	})
}
