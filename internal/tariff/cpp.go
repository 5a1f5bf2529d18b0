package tariff

// Critical-peak pricing (CPP) — the price-based DR program design the
// related-work taxonomy distinguishes from incentive-based programs. A
// CPP tariff wraps a base tariff; during declared critical events the
// price is replaced (or topped) by a very high critical rate. Utilities
// typically cap the number of events per season, which the type tracks.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/billing"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// CriticalWindow is one declared critical-peak event: a half-open
// [Start, End) interval, the engine's window type, so the CPP kernel
// turns windows into sample spans the way the emergency kernel does.
type CriticalWindow = billing.Window

// CPPTariff layers a critical rate over a base tariff during declared
// windows. It classifies as Dynamic: the windows are announced by
// real-time communication, which is exactly the typology's criterion.
type CPPTariff struct {
	base         Tariff
	criticalRate units.EnergyPrice
	windows      []CriticalWindow
	maxEvents    int
}

// NewCPP builds a CPP tariff over base. criticalRate must exceed the
// base tariff's price during every declared window (a CPP event that is
// cheaper than the base rate is a configuration error). maxEvents caps
// how many windows may be declared (0 = unlimited).
func NewCPP(base Tariff, criticalRate units.EnergyPrice, maxEvents int) (*CPPTariff, error) {
	if base == nil {
		return nil, errors.New("tariff: CPP requires a base tariff")
	}
	if criticalRate <= 0 {
		return nil, errors.New("tariff: CPP critical rate must be positive")
	}
	if maxEvents < 0 {
		return nil, errors.New("tariff: CPP max events must be non-negative")
	}
	return &CPPTariff{base: base, criticalRate: criticalRate, maxEvents: maxEvents}, nil
}

// Declare adds a critical window. It fails when the window is inverted,
// when the event budget is exhausted, or when the critical rate does not
// exceed the base price at the window start.
func (t *CPPTariff) Declare(w CriticalWindow) error {
	if !w.End.After(w.Start) {
		return errors.New("tariff: CPP window end must be after start")
	}
	if t.maxEvents > 0 && len(t.windows) >= t.maxEvents {
		return fmt.Errorf("tariff: CPP event budget (%d) exhausted", t.maxEvents)
	}
	if base := t.base.PriceAt(w.Start); t.criticalRate <= base {
		return fmt.Errorf("tariff: CPP critical rate %s does not exceed base %s", t.criticalRate, base)
	}
	t.windows = append(t.windows, w)
	return nil
}

// Windows returns the declared windows.
func (t *CPPTariff) Windows() []CriticalWindow {
	out := make([]CriticalWindow, len(t.windows))
	copy(out, t.windows)
	return out
}

// Kind returns Dynamic: CPP prices depend on real-time declarations.
func (t *CPPTariff) Kind() Kind { return Dynamic }

// PriceAt returns the critical rate inside a declared window, the base
// price otherwise.
func (t *CPPTariff) PriceAt(at time.Time) units.EnergyPrice {
	for _, w := range t.windows {
		if w.Covers(at) {
			return t.criticalRate
		}
	}
	return t.base.PriceAt(at)
}

// Cost prices the load with critical windows applied.
func (t *CPPTariff) Cost(load *timeseries.PowerSeries) units.Money {
	return costByPriceAt(t, load)
}

// Describe returns a one-line description.
func (t *CPPTariff) Describe() string {
	return fmt.Sprintf("critical-peak pricing @ %s over [%s], %d events declared",
		t.criticalRate, t.base.Describe(), len(t.windows))
}

var _ Tariff = (*CPPTariff)(nil)
