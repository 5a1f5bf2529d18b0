package optimize

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/timeseries"
	"repro/internal/units"
)

// The move set's level bisections as they were before levelSolver: 52
// full-month scans each. FuzzLevelSolve holds levelSolver to them bit
// for bit.

func refExcessAbove(samples []units.Power, L, h float64) float64 {
	var kw float64
	for _, p := range samples {
		if v := float64(p); v > L {
			kw += v - L
		}
	}
	return kw * h
}

func refDeficitBelow(samples []units.Power, th, h float64) float64 {
	var kw float64
	for _, p := range samples {
		if v := float64(p); v < th {
			kw += th - v
		}
	}
	return kw * h
}

func refShaveLevel(samples []units.Power, lo, hi, budget, h float64) float64 {
	for k := 0; k < levelBisectIters; k++ {
		mid := (lo + hi) / 2
		if refExcessAbove(samples, mid, h) > budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

func refFillLevel(samples []units.Power, lo, hi, removed, h float64) float64 {
	for k := 0; k < levelBisectIters; k++ {
		mid := (lo + hi) / 2
		if refDeficitBelow(samples, mid, h) < removed {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// levelMonth draws a month of samples in one of five shapes from the
// fuzz inputs: noisy, flat, quantized onto a dyadic grid (samples sit
// exactly on bisection midpoints), a single sample off a flat level,
// and clamped (many samples exactly at a previous shave or fill level).
// scale spreads the kW level from 1e-3 to 1e9.
func levelMonth(seed int64, n int, shape uint8, scale float64) []units.Power {
	rng := rand.New(rand.NewSource(seed))
	base := math.Pow(10, -3+12*clampUnit(scale))
	out := make([]units.Power, n)
	switch shape % 5 {
	case 0:
		for i := range out {
			out[i] = units.Power(base * (1 + 0.6*rng.Float64()))
		}
	case 1:
		for i := range out {
			out[i] = units.Power(base)
		}
	case 2:
		step := math.Ldexp(1, math.Ilogb(base)-6)
		for i := range out {
			out[i] = units.Power(base + step*float64(rng.Intn(65)))
		}
	case 3:
		for i := range out {
			out[i] = units.Power(base)
		}
		out[rng.Intn(n)] = units.Power(base * (1 + 0.5*rng.Float64()))
	case 4:
		lo, hi := base*(1+0.1*rng.Float64()), base*(1.3+0.1*rng.Float64())
		for i := range out {
			v := base * (1 + 0.6*rng.Float64())
			out[i] = units.Power(math.Min(math.Max(v, lo), hi))
		}
	}
	return out
}

func clampUnit(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// FuzzLevelSolve: levelSolver returns the 52-step bisections' levels bit
// for bit, for both directions, over random months, flat months and
// inverted brackets, samples on midpoints, a single contributing
// sample, targets near the move set's 1e-9 kWh floor, and kW levels
// from 1e-3 to 1e9.
func FuzzLevelSolve(f *testing.F) {
	for shape := uint8(0); shape < 5; shape++ {
		f.Add(int64(shape)+1, uint16(2976), shape, 0.4, 0.3, uint8(0), uint8(0))
		f.Add(int64(shape)+11, uint16(744), shape, 1.0, 0.9, uint8(1), uint8(1))
		f.Add(int64(shape)+21, uint16(31), shape, 0.0, 0.05, uint8(2), uint8(2))
		f.Add(int64(shape)+31, uint16(1), shape, 0.7, 0.5, uint8(3), uint8(3))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, shape uint8, scale, frac float64, targetSel, hSel uint8) {
		if n == 0 || n > 9000 {
			t.Skip()
		}
		samples := levelMonth(seed, int(n), shape, scale)
		h := []float64{0.25, 1, 1.0 / 60, 1.5}[hSel%4]
		ls := newLevelSolver(h, int(n)/2) // undersized: the lists must grow correctly
		var minv, peak, sum float64 = math.Inf(1), math.Inf(-1), 0
		for _, p := range samples {
			v := float64(p)
			minv, peak, sum = math.Min(minv, v), math.Max(peak, v), sum+v
		}
		mean := sum / float64(len(samples))
		u := clampUnit(frac)

		// Shave: level L between the mean and the peak, budget a share of
		// the excess above L, or near 1e-9 kWh.
		L := peak - u*(peak-mean)
		budget := refExcessAbove(samples, L, h) * (1 - u)
		if targetSel%3 == 1 {
			budget = 1e-9 * (1 + u)
		}
		got, want := ls.shaveLevel(samples, L, peak, budget), refShaveLevel(samples, L, peak, budget, h)
		if !same(got, want) {
			t.Fatalf("shave [%v, %v] budget %v: got %v, reference %v", L, peak, budget, got, want)
		}

		// Fill: the bracket [minv, hi], hi a level above the month's mean,
		// or a few ulps below minv (the inverted bracket a flattened
		// month produces); removed a share of the deficit below hi, near
		// 1e-9 kWh, or an arbitrary target.
		hi := mean + u*(peak-mean)
		if targetSel%4 == 3 {
			hi = minv
			for k := 0; k <= int(seed&3); k++ {
				hi = math.Nextafter(hi, math.Inf(-1))
			}
		}
		var removed float64
		switch targetSel % 3 {
		case 0:
			removed = refDeficitBelow(samples, hi, h) * u
		case 1:
			removed = 1e-9 * (1 + u)
		default:
			removed = (peak - minv) * h * float64(n) * u
		}
		got, want = ls.fillLevel(samples, minv, hi, removed), refFillLevel(samples, minv, hi, removed, h)
		if !same(got, want) {
			t.Fatalf("fill [%v, %v] removed %v: got %v, reference %v", minv, hi, removed, got, want)
		}
	})
}

// TestWaterFillFlatMonth pins the degenerate water-fill. On a month the
// search has already flattened, the month's mean rounds one ulp below
// its samples, so clipShift's shave level L lands below the minimum and
// the water-fill bracket [minv, L] is inverted. The move still goes
// through, shifting about 1e-9 kWh, and the solver returns the same
// level the 52-step bisection does.
func TestWaterFillFlatMonth(t *testing.T) {
	const n = 2976 // a 31-day month of 15-minute samples
	v := 12000.1
	for {
		var sum float64
		for i := 0; i < n; i++ {
			sum += v
		}
		if sum/n < v {
			break
		}
		v = math.Nextafter(v, math.Inf(1))
	}
	samples := make([]units.Power, n)
	for i := range samples {
		samples[i] = units.Power(v)
	}
	load := timeseries.MustNewPower(time.Date(2016, time.January, 1, 0, 0, 0, 0, time.UTC), 15*time.Minute, samples)

	// The solver on the inverted bracket, as clipShift meets it: the
	// month clamped to L one ulp below minv = v.
	L := math.Nextafter(v, 0)
	clamped := make([]units.Power, n)
	for i := range clamped {
		clamped[i] = units.Power(L)
	}
	removed := refExcessAbove(samples, L, 0.25)
	ls := newLevelSolver(0.25, n)
	if got, want := ls.fillLevel(clamped, v, L, removed), refFillLevel(clamped, v, L, removed, 0.25); !same(got, want) {
		t.Fatalf("inverted bracket [%v, %v]: got %v, reference %v", v, L, got, want)
	}

	// clipShift on the flat month itself.
	s := newSearchState(load, Flexibility{DeferrableFraction: 0.1}, 1)
	s.setBlocks(load.WithSamples(s.buf).Blocks())
	for try := 0; try < 8; try++ {
		moved, _, ok := s.clipShift()
		if !ok {
			continue
		}
		if moved <= 1e-9 || moved > 1e-8 {
			t.Fatalf("degenerate move shifted %v kWh, want about 1e-9", moved)
		}
		for i, p := range s.buf {
			if p != units.Power(v) && p != units.Power(L) {
				t.Fatalf("sample %d = %v, want %v or %v", i, p, v, L)
			}
		}
		return
	}
	t.Fatal("no degenerate move went through on the flat month")
}
