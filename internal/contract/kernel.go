package contract

// Columnar kernel for the emergency-DR obligation. Its per-sample work
// is a window-coverage test; the scanner turns the period's declared
// windows into merged, sorted sample-index spans at Begin
// (billing.AppendSpans, which the CPP tariff walk uses too), so the
// scan is a cursor walk over [Lo, Hi) ranges with no per-sample time
// arithmetic. The penalty depends only on whether a sample's instant is
// covered by any window, so merging overlapping windows cannot change
// the amount; the per-sample cost expression is identical to
// EmergencyObligation.Cost.

import (
	"strconv"
	"time"

	"repro/internal/billing"
	"repro/internal/units"
)

// CompileKernel compiles the obligation for columnar evaluation.
func (o *EmergencyObligation) CompileKernel() billing.Kernel {
	return &emergencyKernel{ob: o, desc: o.Describe()}
}

type emergencyKernel struct {
	ob   *EmergencyObligation
	desc string
}

func (k *emergencyKernel) NewScanner() billing.Scanner {
	return &emergencyScanner{ob: k.ob, desc: k.desc}
}

type emergencyScanner struct {
	ob   *EmergencyObligation
	desc string
	h    float64

	spans    []billing.Span
	cur      int
	nwindows int
	total    units.Money

	buf []byte
}

func (s *emergencyScanner) Begin(pctx *billing.PeriodContext, start time.Time, interval time.Duration, n int) {
	s.h = interval.Hours()
	s.total = 0
	s.cur = 0
	s.nwindows = len(pctx.Emergencies)
	s.spans = billing.AppendSpans(s.spans[:0], pctx.Emergencies, start, interval, n)
}

func (s *emergencyScanner) Scan(samples []units.Power, base int) {
	if s.cur >= len(s.spans) {
		return
	}
	end := base + len(samples)
	limit := s.ob.Cap
	h := s.h
	for s.cur < len(s.spans) {
		sp := s.spans[s.cur]
		lo, hi := max(sp.Lo, base), min(sp.Hi, end)
		for i := lo; i < hi; i++ {
			if p := samples[i-base]; p > limit {
				s.total += s.ob.Penalty.Cost(units.Energy(float64(p-limit) * h))
			}
		}
		if sp.Hi > end {
			// The span continues into the next chunk.
			return
		}
		s.cur++
	}
}

func (s *emergencyScanner) AppendLines(dst []billing.LineItem) []billing.LineItem {
	s.buf = strconv.AppendInt(s.buf[:0], int64(s.nwindows), 10)
	s.buf = append(s.buf, " events"...)
	return append(dst, billing.LineItem{
		Class:       billing.ClassEmergencyDR,
		Description: s.desc,
		Quantity:    string(s.buf),
		Amount:      s.total,
	})
}
