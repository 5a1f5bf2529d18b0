package billing

// Columnar kernel interfaces. A Kernel is a LineItemProducer compiled
// for the evaluator's one scan: its Scanner consumes contiguous
// []units.Power chunks of a month block in a tight loop — no
// per-sample dispatch, near-zero allocation. A component with no
// specialised kernel still compiles one, pricing each sample of the
// chunk through its own per-sample arithmetic inside the same scan.
//
// The compilation contract is strict arithmetic identity: a scanner
// must perform the same floating-point operations in the same order as
// the component's standalone Cost method, so the engine is
// byte-identical to the legacy multi-pass path bill-for-bill (pinned by
// contract's golden tests).

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
