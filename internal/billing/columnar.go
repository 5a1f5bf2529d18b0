package billing

// Columnar evaluation: the engine's one scan. The period's load is
// viewed as contiguous month blocks (timeseries.MonthBlock); each block
// is fed to every compiled scanner chunk-at-a-time, so the inner loops
// are plain []units.Power scans with no interface dispatch per sample.
// The built-in energy/peak aggregates ride the same pass; the context
// is polled every cancelCheckStride samples untraced and every
// traceBlock samples traced, where each component family's scanners are
// timed per chunk.

import (
	"context"
	"time"

	"repro/internal/obs"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// scanSet is the pooled per-evaluation state of the scan: one
// scanner per kernel, the trace-family grouping of those scanners, the
// month-block scratch, and the period context handed to Begin (kept on
// the set so taking its address does not force a heap escape per
// period).
type scanSet struct {
	scanners []Scanner
	groups   [][]Scanner
	blocks   []timeseries.MonthBlock
	pctx     PeriodContext
}

// newScanSet builds the pool's scanSet from the compiled kernels.
func (e *Evaluator) newScanSet() *scanSet {
	ss := &scanSet{scanners: make([]Scanner, len(e.kernels))}
	for i, k := range e.kernels {
		ss.scanners[i] = k.NewScanner()
	}
	ss.groups = make([][]Scanner, len(e.famIdx))
	for g, idx := range e.famIdx {
		ss.groups[g] = make([]Scanner, len(idx))
		for j, i := range idx {
			ss.groups[g][j] = ss.scanners[i]
		}
	}
	return ss
}

// evaluatePeriodInto evaluates one period into a caller-owned Result —
// the allocation-lean core EvaluateMonths fills its result slab with.
// Untraced, it scans cancelCheckStride-sample chunks and reads no
// clock. When ctx carries an obs.Registry it scans traceBlock-sample
// chunks and times each component family's scanners per chunk, so scan
// cost attributes to "billing.<family>" spans.
func (e *Evaluator) evaluatePeriodInto(ctx context.Context, load *timeseries.PowerSeries, pctx PeriodContext, res *Result) error {
	if load == nil || load.Len() == 0 {
		return ErrEmptyLoad
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	ss := e.pool.Get().(*scanSet)
	defer e.pool.Put(ss)

	interval := load.Interval()
	n := load.Len()
	ss.pctx = pctx
	start := load.Start()
	for _, sc := range ss.scanners {
		sc.Begin(&ss.pctx, start, interval, n)
	}
	ss.blocks = load.AppendBlocks(ss.blocks)

	reg := obs.SpansFrom(ctx)
	endPeriod := func() {}
	stride := cancelCheckStride
	var nanos []time.Duration
	if reg != nil {
		endPeriod = obs.Span(ctx, SpanPeriod)
		stride = traceBlock
		nanos = make([]time.Duration, len(ss.groups))
	}
	done := ctx.Done()
	h := interval.Hours()
	var kwh float64
	peak := load.At(0)
	peakIdx := 0
	for _, blk := range ss.blocks {
		samples := blk.Samples
		for off := 0; off < len(samples); off += stride {
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			chunk := samples[off:min(off+stride, len(samples))]
			base := blk.Offset + off
			for j, p := range chunk {
				en := float64(p) * h
				kwh += en
				if p > peak {
					peak, peakIdx = p, base+j
				}
			}
			for g, group := range ss.groups {
				var t0 time.Time
				if reg != nil {
					t0 = e.now()
				}
				for _, sc := range group {
					sc.Scan(chunk, base)
				}
				if reg != nil {
					nanos[g] += e.now().Sub(t0)
				}
			}
		}
	}
	if reg != nil {
		for g, name := range e.famNames {
			reg.Observe(SpanFamilyPrefix+name, nanos[g].Seconds())
		}
	}
	res.PeriodStart = load.Start()
	res.PeriodEnd = load.End()
	res.Energy = units.Energy(kwh)
	res.Peak = peak
	res.PeakTime = load.TimeAt(peakIdx)
	lines := make([]LineItem, 0, len(ss.scanners))
	for _, sc := range ss.scanners {
		lines = sc.AppendLines(lines)
	}
	var total units.Money
	for _, l := range lines {
		total += l.Amount
	}
	res.Lines = lines
	res.Total = total
	endPeriod()
	return nil
}
