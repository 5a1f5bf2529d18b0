package contract

// Columnar kernel for the emergency-DR obligation. Its per-sample work
// is a window-coverage test; the scanner compiles the period's declared
// windows into merged, sorted sample-index spans at Begin, so the scan
// is a cursor walk over [lo, hi) ranges with no per-sample time
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

// idxSpan is a half-open covered range of period-relative sample
// indices.
type idxSpan struct{ lo, hi int }

type emergencyScanner struct {
	ob   *EmergencyObligation
	desc string
	h    float64

	spans    []idxSpan
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
	s.spans = s.spans[:0]
	for _, w := range pctx.Emergencies {
		if !w.End.After(start) {
			continue
		}
		lo := 0
		if w.Start.After(start) {
			lo = billing.CeilIndex(w.Start.Sub(start), interval)
		}
		hi := billing.CeilIndex(w.End.Sub(start), interval)
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		// Insertion sort by lo: window lists are tiny and almost sorted.
		at := len(s.spans)
		s.spans = append(s.spans, idxSpan{})
		for at > 0 && s.spans[at-1].lo > lo {
			s.spans[at] = s.spans[at-1]
			at--
		}
		s.spans[at] = idxSpan{lo: lo, hi: hi}
	}
	// Merge overlapping spans in place.
	merged := s.spans[:0]
	for _, sp := range s.spans {
		if len(merged) > 0 && sp.lo <= merged[len(merged)-1].hi {
			if sp.hi > merged[len(merged)-1].hi {
				merged[len(merged)-1].hi = sp.hi
			}
			continue
		}
		merged = append(merged, sp)
	}
	s.spans = merged
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
		lo, hi := sp.lo, sp.hi
		if lo < base {
			lo = base
		}
		if hi > end {
			hi = end
		}
		for i := lo; i < hi; i++ {
			if p := samples[i-base]; p > limit {
				s.total += s.ob.Penalty.Cost(units.Energy(float64(p-limit) * h))
			}
		}
		if sp.hi > end {
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
