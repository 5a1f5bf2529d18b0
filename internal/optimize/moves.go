package optimize

// The perturbation move set. Every move mutates the shared candidate
// buffer in place, records an undo entry per touched sample, and lists
// the calendar months it touched; the search loop either commits the
// edit (objective accepted) or replays the undo log (rejected).
//
// Feasibility is maintained by construction:
//
//   - Shave levels never go below the load floor, and block deferral
//     caps its delta at the source window's floor headroom.
//   - Clamp-above (min(x, L)) and water-fill (max(x, θ)) are 1-Lipschitz
//     maps applied to a whole month, so within-month ramps never grow;
//     the two cross-month boundary steps — and all four window edges of
//     a block deferral — are checked explicitly against the ramp
//     envelope and the move is rejected outright on violation.
//   - Shaved energy is water-filled back into the same month's valleys
//     (deferral) or dropped against the partial-execution budget, so
//     total energy is conserved up to the dropped amount.

import (
	"math"
	"math/rand"

	"repro/internal/timeseries"
	"repro/internal/units"
)

// levelBisectIters is the bisection depth for budget-capped shave
// levels and water-fill levels: 52 halvings of a kW-scale bracket reach
// float64 resolution, making the fill/shave energy mismatch negligible
// against the feasibility tolerance.
const levelBisectIters = 52

type undoEdit struct {
	idx int
	old units.Power
}

// searchState is the mutable candidate schedule plus the flexibility
// bookkeeping the move set works against.
type searchState struct {
	rng *rand.Rand

	buf   []units.Power // candidate samples (mutated in place)
	lower []units.Power // per-sample floor: min(baseline, FloorKW)
	h     float64       // interval length in hours

	blocks []timeseries.MonthBlock // month views over buf
	lv     levelSolver             // the moves' level bisections

	// floors[m] is the highest per-sample floor in month m: the lowest
	// level the whole month may be clamped to.
	floors []float64

	// baseRamp[j] is the baseline's |x[j+1]-x[j]|; the envelope allows
	// each step the larger of this and MaxRampKW.
	baseRamp []float64
	maxRamp  float64 // +Inf when unconstrained

	deferBudget   float64 // kWh that may be time-shifted, total
	partialBudget float64 // kWh that may be dropped, total
	moved         float64 // kWh of defer budget consumed (committed)
	dropped       float64 // kWh of partial budget consumed (committed)

	undo    []undoEdit
	touched []int

	rampRejected int
	floorLimited int
}

func newSearchState(baseline *timeseries.PowerSeries, flex Flexibility, seed int64) *searchState {
	n := baseline.Len()
	s := &searchState{
		rng:   rand.New(rand.NewSource(seed)),
		buf:   baseline.AppendSamples(nil),
		lower: make([]units.Power, n),
		h:     baseline.Interval().Hours(),
	}
	floor := units.Power(flex.FloorKW)
	for i := range s.lower {
		lo := floor
		if p := baseline.At(i); p < lo {
			lo = p
		}
		if lo < 0 {
			lo = 0
		}
		s.lower[i] = lo
	}
	if n > 1 {
		s.baseRamp = make([]float64, n-1)
		for j := range s.baseRamp {
			s.baseRamp[j] = math.Abs(float64(baseline.At(j+1) - baseline.At(j)))
		}
	}
	s.maxRamp = flex.MaxRampKW
	if s.maxRamp <= 0 {
		s.maxRamp = math.Inf(1)
	}
	e := float64(baseline.Energy())
	s.deferBudget = flex.DeferrableFraction * e
	s.partialBudget = flex.PartialFraction * e
	return s
}

// setBlocks installs the month views over buf, records each month's
// floor (lower never changes during a search), and sizes the level
// solver's scratch to the longest month.
func (s *searchState) setBlocks(blocks []timeseries.MonthBlock) {
	s.blocks = blocks
	s.floors = make([]float64, len(blocks))
	monthLen := 0
	for m, b := range blocks {
		for _, f := range s.lower[b.Offset : b.Offset+len(b.Samples)] {
			if v := float64(f); v > s.floors[m] {
				s.floors[m] = v
			}
		}
		monthLen = max(monthLen, len(b.Samples))
	}
	s.lv = newLevelSolver(s.h, monthLen)
}

// set writes one sample, recording the undo entry.
func (s *searchState) set(i int, v units.Power) {
	s.undo = append(s.undo, undoEdit{idx: i, old: s.buf[i]})
	s.buf[i] = v
}

// revert replays the undo log backwards, restoring the last committed
// schedule.
func (s *searchState) revert() {
	for i := len(s.undo) - 1; i >= 0; i-- {
		e := s.undo[i]
		s.buf[e.idx] = e.old
	}
	s.undo = s.undo[:0]
	s.touched = s.touched[:0]
}

// commit forgets the undo log, adopting the current buffer.
func (s *searchState) commit() {
	s.undo = s.undo[:0]
	s.touched = s.touched[:0]
}

// allow returns the ramp envelope for the step between samples j and
// j+1.
func (s *searchState) allow(j int) float64 {
	a := s.baseRamp[j]
	if s.maxRamp > a {
		a = s.maxRamp
	}
	return a
}

// rampOK checks the step between samples j and j+1 against the
// envelope (out-of-range steps pass).
func (s *searchState) rampOK(j int) bool {
	if j < 0 || j+1 >= len(s.buf) {
		return true
	}
	return math.Abs(float64(s.buf[j+1]-s.buf[j])) <= s.allow(j)+1e-9
}

// propose mutates the buffer with one randomly selected move and
// returns the deferrable/partial energy it would consume if accepted.
// ok is false when no well-formed move came out (buffer unchanged).
func (s *searchState) propose() (movedDelta, droppedDelta float64, ok bool) {
	s.undo = s.undo[:0]
	s.touched = s.touched[:0]

	deferrable := s.deferBudget-s.moved > 1e-9
	droppable := s.partialBudget-s.dropped > 1e-9
	if !deferrable && !droppable {
		return 0, 0, false
	}
	r := s.rng.Float64()
	switch {
	case deferrable && (r < 0.45 || !droppable && r < 0.7):
		return s.clipShift()
	case deferrable && r < 0.7:
		return s.deferBlock()
	case droppable:
		return s.shaveDrop()
	default:
		return s.deferBlock()
	}
}

// pickMonth returns a random month index with at least 4 samples, or
// -1 when none exists.
func (s *searchState) pickMonth() int {
	m := s.rng.Intn(len(s.blocks))
	for try := 0; try < 4; try++ {
		if len(s.blocks[(m+try)%len(s.blocks)].Samples) >= 4 {
			return (m + try) % len(s.blocks)
		}
	}
	return -1
}

// monthStats scans one month of the current buffer.
func monthStats(samples []units.Power) (mean, minv, peak float64) {
	minv, peak = float64(samples[0]), float64(samples[0])
	var sum float64
	for _, p := range samples {
		v := float64(p)
		sum += v
		if v < minv {
			minv = v
		}
		if v > peak {
			peak = v
		}
	}
	return sum / float64(len(samples)), minv, peak
}

// excessAbove returns the energy (kWh) above level L in the month.
func (s *searchState) excessAbove(samples []units.Power, L float64) float64 {
	var kw float64
	for _, p := range samples {
		if v := float64(p); v > L {
			kw += v - L
		}
	}
	return kw * s.h
}

// capLevelToBudget raises the shave level L within [L, peak] until the
// energy above it fits the budget, and returns the level with that
// energy.
func (s *searchState) capLevelToBudget(samples []units.Power, L, peak, budget float64) (level, excess float64) {
	if e := s.excessAbove(samples, L); e <= budget {
		return L, e
	}
	L = s.lv.shaveLevel(samples, L, peak, budget)
	return L, s.excessAbove(samples, L)
}

// clipShift shaves one month's peaks down to a level and water-fills
// the same month's valleys with the shaved energy: an in-month deferral
// that attacks demand charges, ratchets and upper powerband excursions
// while conserving energy exactly.
func (s *searchState) clipShift() (movedDelta, droppedDelta float64, ok bool) {
	m := s.pickMonth()
	if m < 0 {
		return 0, 0, false
	}
	blk := s.blocks[m]
	mean, minv, peak := monthStats(blk.Samples)
	low, floorBound := mean, false
	if f := s.floors[m]; f > low {
		low, floorBound = f, true
	}
	if peak <= low {
		if floorBound {
			s.floorLimited++
		}
		return 0, 0, false
	}
	budget := s.deferBudget - s.moved
	u := 0.05 + 0.95*s.rng.Float64()
	L := peak - u*(peak-low)
	L, removed := s.capLevelToBudget(blk.Samples, L, peak, budget)
	if removed <= 1e-9 {
		return 0, 0, false
	}
	for i, p := range blk.Samples {
		if float64(p) > L {
			s.set(blk.Offset+i, units.Power(L))
		}
	}
	// Water-fill level θ absorbing the removed energy. In exact
	// arithmetic the fill capacity up to L is removed + n·(L − mean) ≥
	// removed because L ≥ mean, so [minv, L] contains θ. In floating
	// point it need not: on a month the search has already flattened,
	// mean and L can round a few ulps below minv, and the bracket is
	// inverted. The bisection then returns a level within it and the
	// move shifts a few ulps per sample; such moves are kept, as before.
	th := s.lv.fillLevel(blk.Samples, minv, L, removed)
	for i, p := range blk.Samples {
		if float64(p) < th {
			s.set(blk.Offset+i, units.Power(th))
		}
	}
	if !s.rampOK(blk.Offset-1) || !s.rampOK(blk.Offset+len(blk.Samples)-1) {
		s.rampRejected++
		s.revert()
		return 0, 0, false
	}
	s.touched = append(s.touched, m)
	return removed, 0, true
}

// shaveDrop shaves one month's peaks and drops the energy against the
// partial-execution budget (Xu & Li): the workload above the level
// simply does not run.
func (s *searchState) shaveDrop() (movedDelta, droppedDelta float64, ok bool) {
	m := s.pickMonth()
	if m < 0 {
		return 0, 0, false
	}
	blk := s.blocks[m]
	mean, _, peak := monthStats(blk.Samples)
	low, floorBound := mean*0.5, false
	if f := s.floors[m]; f > low {
		low, floorBound = f, true
	}
	if peak <= low {
		if floorBound {
			s.floorLimited++
		}
		return 0, 0, false
	}
	budget := s.partialBudget - s.dropped
	u := 0.05 + 0.6*s.rng.Float64()
	L := peak - u*(peak-low)
	L, removed := s.capLevelToBudget(blk.Samples, L, peak, budget)
	if removed <= 1e-9 {
		return 0, 0, false
	}
	for i, p := range blk.Samples {
		if float64(p) > L {
			s.set(blk.Offset+i, units.Power(L))
		}
	}
	if !s.rampOK(blk.Offset-1) || !s.rampOK(blk.Offset+len(blk.Samples)-1) {
		s.rampRejected++
		s.revert()
		return 0, 0, false
	}
	s.touched = append(s.touched, m)
	return 0, removed, true
}

// deferBlock moves a rectangle of power from one window to another
// (possibly in a different month): the schedule-level picture of
// deferring a job slice. Interior ramps are untouched (uniform shift);
// the four window edges are checked against the envelope.
func (s *searchState) deferBlock() (movedDelta, droppedDelta float64, ok bool) {
	ms := s.pickMonth()
	md := s.pickMonth()
	if ms < 0 || md < 0 {
		return 0, 0, false
	}
	src, dst := s.blocks[ms], s.blocks[md]
	w := 4 + s.rng.Intn(61)
	if w > len(src.Samples) {
		w = len(src.Samples)
	}
	if w > len(dst.Samples) {
		w = len(dst.Samples)
	}

	// Source window: usually around the month's current peak (that is
	// where shaving pays), sometimes anywhere.
	var srcStart int
	if s.rng.Float64() < 0.7 {
		argmax := 0
		for i, p := range src.Samples {
			if p > src.Samples[argmax] {
				argmax = i
			}
		}
		srcStart = argmax - w/2
	} else {
		srcStart = s.rng.Intn(len(src.Samples) - w + 1)
	}
	if srcStart < 0 {
		srcStart = 0
	}
	if srcStart > len(src.Samples)-w {
		srcStart = len(src.Samples) - w
	}
	dstStart := s.rng.Intn(len(dst.Samples) - w + 1)

	sa, sb := src.Offset+srcStart, src.Offset+srcStart+w // [sa, sb)
	da, db := dst.Offset+dstStart, dst.Offset+dstStart+w
	if sa < db && da < sb {
		return 0, 0, false // overlapping windows cancel out
	}

	// Delta capped by the source window's floor headroom and the
	// remaining defer budget.
	head := math.Inf(1)
	for i := sa; i < sb; i++ {
		if h := float64(s.buf[i] - s.lower[i]); h < head {
			head = h
		}
	}
	if head <= 1e-9 {
		s.floorLimited++
		return 0, 0, false
	}
	budget := s.deferBudget - s.moved
	capKW := math.Min(head, budget/(float64(w)*s.h))
	delta := (0.2 + 0.8*s.rng.Float64()) * capKW
	if delta <= 1e-9 {
		return 0, 0, false
	}

	for i := sa; i < sb; i++ {
		s.set(i, s.buf[i]-units.Power(delta))
	}
	for i := da; i < db; i++ {
		s.set(i, s.buf[i]+units.Power(delta))
	}
	if !s.rampOK(sa-1) || !s.rampOK(sb-1) || !s.rampOK(da-1) || !s.rampOK(db-1) {
		s.rampRejected++
		s.revert()
		return 0, 0, false
	}
	s.touched = append(s.touched, ms)
	if md != ms {
		s.touched = append(s.touched, md)
	}
	return delta * float64(w) * s.h, 0, true
}
