package billing

// Columnar kernel interfaces. A Kernel is a LineItemProducer compiled
// for the evaluator's one scan: its Scanner consumes contiguous
// []units.Power chunks of a month block in a tight loop — no
// per-sample dispatch, near-zero allocation. Kernels turn wall-clock
// instants into sample indexes with CeilIndex, and declared windows
// (emergency events, CPP critical windows) into merged index spans
// with AppendSpans, so neither the emergency obligation nor a CPP
// tariff tests windows per sample.
//
// The compilation contract is strict arithmetic identity: a scanner
// must perform the same floating-point operations in the same order as
// the legacy oracle (contract.ComputeBillLegacy) prices its component,
// so the engine is byte-identical to that multi-pass path bill-for-bill
// (pinned by contract's golden tests).

import (
	"time"

	"repro/internal/units"
)

// Kernel is a producer compiled for columnar evaluation. Kernels are
// immutable and safe for concurrent NewScanner calls; all per-period
// state lives in the Scanner.
type Kernel interface {
	// NewScanner returns a fresh per-period scanner. Scanners are
	// pooled and reused across periods via Begin.
	NewScanner() Scanner
}

// Scanner is a kernel's per-period state. The evaluator calls Begin
// once per period, Scan for every chunk of the period's samples in
// order (each sample exactly once), and AppendLines after the last
// chunk. Scanners are reused across periods: Begin must fully reset.
type Scanner interface {
	// Begin resets the scanner for a period starting at start with the
	// given metering interval and n total samples. pctx remains valid
	// until AppendLines returns.
	Begin(pctx *PeriodContext, start time.Time, interval time.Duration, n int)
	// Scan consumes one chunk. base is the period-relative index of
	// samples[0]; chunks arrive in order and partition the period.
	Scan(samples []units.Power, base int)
	// AppendLines appends the period's line items to dst and returns
	// the extended slice, called once after the last chunk.
	AppendLines(dst []LineItem) []LineItem
}

// CeilIndex returns the smallest sample index i such that
// start + i*interval is at or after start + d — the standard
// duration-to-index ceiling conversion kernels use to turn wall-clock
// boundaries (month edges, price-feed slots, emergency windows) into
// sample indices. d must be non-negative.
func CeilIndex(d, interval time.Duration) int {
	return int((d + interval - 1) / interval)
}

// Span is a half-open range [Lo, Hi) of period-relative sample indices.
type Span struct{ Lo, Hi int }

// AppendSpans appends to dst the sample spans the windows cover in a
// period of n samples from start: sample i, at start + i·interval, lies
// in a span exactly when some window Covers that instant. The appended
// spans are sorted, and overlapping or adjacent ones are merged, so
// they are disjoint and never touch.
func AppendSpans(dst []Span, windows []Window, start time.Time, interval time.Duration, n int) []Span {
	first := len(dst)
	for _, w := range windows {
		lo := spanIndex(w.Start.Sub(start), interval, n)
		hi := spanIndex(w.End.Sub(start), interval, n)
		if lo >= hi {
			continue
		}
		// Insertion sort by Lo: window lists are tiny and almost sorted.
		at := len(dst)
		dst = append(dst, Span{})
		for at > first && dst[at-1].Lo > lo {
			dst[at] = dst[at-1]
			at--
		}
		dst[at] = Span{Lo: lo, Hi: hi}
	}
	merged := dst[:first]
	for _, sp := range dst[first:] {
		if last := len(merged) - 1; last >= first && sp.Lo <= merged[last].Hi {
			merged[last].Hi = max(merged[last].Hi, sp.Hi)
			continue
		}
		merged = append(merged, sp)
	}
	return merged
}

// spanIndex is CeilIndex(d, interval) clamped to [0, n]. The clamp
// comes first, so the saturated durations time.Time.Sub returns for
// instants centuries apart cannot overflow the ceiling.
func spanIndex(d, interval time.Duration, n int) int {
	switch {
	case d <= 0:
		return 0
	case d/interval >= time.Duration(n):
		return n
	}
	return CeilIndex(d, interval)
}
