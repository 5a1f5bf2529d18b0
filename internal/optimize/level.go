package optimize

// Level solves. clipShift's water-fill and capLevelToBudget each pick a
// level by a levelBisectIters-step bisection over a month:
//
//	for k := 0; k < levelBisectIters; k++ {
//		mid := (lo + hi) / 2
//		if moveLo(mid) { lo = mid } else { hi = mid }
//	}
//	return hi
//
// where moveLo compares an index-ordered float sum over the month with
// a target. The search's output depends on every bit of the returned
// level, so levelSolver makes exactly the decisions that loop makes; it
// only makes fewer, cheaper scans to reach them:
//
//   - Early exit. If mid equals hi, neither branch changes hi and the
//     loop stays put: return hi. If mid equals lo (and not hi), the
//     predicate at mid decides the rest: moving lo repeats forever
//     (return hi), moving hi collapses the bracket onto lo (return lo).
//     (This assumes lo+hi does not overflow, true of any power level.)
//   - Skipping. Every later midpoint lies between the current bracket
//     ends, so a sample no midpoint can count is dropped from the scan.
//   - Estimate, then verify. The predicate is first decided from a
//     cheap estimate with a proven error bound; the exact index-ordered
//     sum runs only when the estimate lies within that bound of the
//     target.
//
// Both directions are one solve: the shave level's excess above L is
// the deficit below −L of the negated samples, bit for bit (v − L and
// (−L) − (−v) are the same IEEE operation), so the solver works on
// w = ±v and only the comparison's sense differs.

import (
	"math"

	"repro/internal/units"
)

// levelSolver holds the level solves' scratch lists, carved from one
// buffer sized to the longest month once per search.
type levelSolver struct {
	h    float64   // interval length in hours
	list []float64 // samples that can still count, in month order
	brk  []float64 // the bracket's own samples, for the estimate
}

func newLevelSolver(h float64, monthLen int) levelSolver {
	buf := make([]float64, 2*monthLen)
	return levelSolver{h: h, list: buf[:0:monthLen], brk: buf[monthLen:monthLen]}
}

// fillLevel returns the water-fill level θ in [lo, hi]: the bisection
// that moves lo while the energy needed to fill the month up to mid,
// h·Σ_{v<mid}(mid − v), is below removed.
func (ls *levelSolver) fillLevel(samples []units.Power, lo, hi, removed float64) float64 {
	return ls.solve(samples, false, lo, hi, removed)
}

// shaveLevel returns the shave level in [lo, hi]: the bisection that
// moves lo while excessAbove(samples, mid) > budget.
func (ls *levelSolver) shaveLevel(samples []units.Power, lo, hi, budget float64) float64 {
	return -ls.solve(samples, true, -lo, -hi, budget)
}

// solve runs the bisection over w = v (neg false: moveLo when the
// deficit h·Σ_{w<mid}(mid − w) is below target) or w = −v (neg true:
// moveLo when that sum, the excess of the original samples, is above
// target).
func (ls *levelSolver) solve(samples []units.Power, neg bool, lo, hi, target float64) float64 {
	if same((lo+hi)/2, hi) {
		return hi // the first step's early exit, before any scan
	}
	// [a, b) is the bracket as an interval; lo may lie above hi (the
	// shave direction always, a degenerate water-fill sometimes).
	a, b := lo, hi
	if a > b {
		a, b = b, a
	}
	// Every later midpoint lies in [a, b]. A sample at or above b never
	// counts. One at or below a adds (a − w) + (mid − a) at every later
	// midpoint (zero when w = a = mid), so the estimate folds those into
	// c and d = Σ(a − w) and keeps only the samples in (a, b) one by
	// one. Folding w = a matters: a month the search already flattened
	// has many samples exactly at its minimum.
	list, brk := ls.list[:0], ls.brk[:0]
	var d float64
	var c int
	for _, p := range samples {
		w := float64(p)
		if neg {
			w = -w
		}
		if !(w < b) {
			continue
		}
		list = append(list, w)
		if w <= a {
			d += a - w
			c++
		} else {
			brk = append(brk, w)
		}
	}

	// Error bound of the estimate (the sums below are over the m samples
	// of list; u = 2⁻⁵³). Let S = Σ_{w<mid}(mid − w) in exact arithmetic.
	//   - The exact sum X adds at most m terms fl(mid − w) ≥ 0, each off
	//     by at most one rounding, so |X − S| ≤ γ_m·S (Higham, Accuracy
	//     and Stability of Numerical Algorithms, §4.2; γ_k = ku/(1−ku)).
	//   - The estimate E = d + c·(mid − a) + Σ_{(a,mid)}(mid − w) is, in
	//     exact arithmetic, S again: d telescopes to Σ(a − w) over the
	//     folded samples because a only rises. In floating point it is a
	//     sum of non-negative terms, each carrying at most two roundings
	//     (a difference, times the exact integer c), through at most
	//     m + iters additions into d and m + 2 more, so |E − S| ≤
	//     γ_{2m+iters+4}·S.
	//   - The decision compares fl(X·h) with the target; the estimate
	//     uses fl(E·h). Two more roundings and S ≤ E/(1 − γ) give
	//     |fl(X·h) − fl(E·h)| ≤ γ_{3m+iters+8}·fl(E·h)·(1 + small).
	// tol doubles that relative bound, which also covers rounding in
	// forming tol and the comparisons. The absolute 2⁻¹⁰⁰⁰ covers
	// products that land in the subnormal range, where the relative
	// model fails. Inf or NaN makes every "sure" comparison false and
	// falls through to the exact sum.
	relTol := float64(2*(3*len(list)+levelBisectIters+8)) * 0x1p-53
	h := ls.h

	for k := 0; k < levelBisectIters; k++ {
		mid := (lo + hi) / 2
		if same(mid, hi) {
			return hi
		}

		// moveLo at mid: estimate first.
		var sumBrk float64
		for _, w := range brk {
			if w < mid {
				sumBrk += mid - w
			}
		}
		eh := (d + float64(c)*(mid-a) + sumBrk) * h
		tol := relTol*eh + 0x1p-1000
		var moveLo, sure bool
		if neg {
			moveLo, sure = eh-tol > target, eh-tol > target || eh+tol <= target
		} else {
			moveLo, sure = eh+tol < target, eh+tol < target || eh-tol >= target
		}
		if !sure {
			// The exact index-ordered sum the bisection compares; samples
			// at or above b add nothing and go.
			var kw float64
			keep := list[:0]
			for _, w := range list {
				if w < b {
					keep = append(keep, w)
					if w < mid {
						kw += mid - w
					}
				}
			}
			list = keep
			if neg {
				moveLo = kw*h > target
			} else {
				moveLo = kw*h < target
			}
		}

		if same(mid, lo) {
			if moveLo {
				return hi
			}
			return lo
		}
		if moveLo {
			lo = mid
		} else {
			hi = mid
		}

		// Narrow [a, b) to the new bracket. One end moved: a rise of a
		// lifts every folded term by the same amount, and bracket samples
		// now at or below a fold in; samples now at or above b drop out.
		na, nb := lo, hi
		if na > nb {
			na, nb = nb, na
		}
		if na > a {
			d += float64(c) * (na - a)
			a = na
		}
		b = nb
		keep := brk[:0]
		for _, w := range brk {
			switch {
			case w >= b:
			case w <= a:
				d += a - w
				c++
			default:
				keep = append(keep, w)
			}
		}
		brk = keep
	}
	return hi
}

// same reports whether x and y are the same float64, signed zeros told
// apart: the returned level must match the bisection's bit for bit.
func same(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
