package tariff

import (
	"strings"
	"testing"
	"time"

	"repro/internal/timeseries"
	"repro/internal/units"
)

func newCPP(t *testing.T, maxEvents int) *CPPTariff {
	t.Helper()
	cpp, err := NewCPP(MustNewFixed(0.08), 1.20, maxEvents)
	if err != nil {
		t.Fatal(err)
	}
	return cpp
}

func TestNewCPPValidation(t *testing.T) {
	if _, err := NewCPP(nil, 1, 0); err == nil {
		t.Error("nil base should fail")
	}
	if _, err := NewCPP(MustNewFixed(0.08), 0, 0); err == nil {
		t.Error("zero critical rate should fail")
	}
	if _, err := NewCPP(MustNewFixed(0.08), 1, -1); err == nil {
		t.Error("negative max events should fail")
	}
}

func TestCPPDeclareValidation(t *testing.T) {
	cpp := newCPP(t, 2)
	w := CriticalWindow{Start: t0, End: t0.Add(time.Hour)}
	if err := cpp.Declare(w); err != nil {
		t.Fatal(err)
	}
	// Inverted window.
	if err := cpp.Declare(CriticalWindow{Start: t0.Add(time.Hour), End: t0}); err == nil {
		t.Error("inverted window should fail")
	}
	// Budget.
	if err := cpp.Declare(CriticalWindow{Start: t0.Add(2 * time.Hour), End: t0.Add(3 * time.Hour)}); err != nil {
		t.Fatal(err)
	}
	if err := cpp.Declare(CriticalWindow{Start: t0.Add(4 * time.Hour), End: t0.Add(5 * time.Hour)}); err == nil {
		t.Error("third event should exceed the budget of 2")
	}
	if len(cpp.Windows()) != 2 {
		t.Errorf("windows = %d", len(cpp.Windows()))
	}
}

func TestCPPDeclareRejectsNonPremiumRate(t *testing.T) {
	cpp, err := NewCPP(MustNewFixed(2.0), 1.0, 0) // critical below base
	if err != nil {
		t.Fatal(err)
	}
	if err := cpp.Declare(CriticalWindow{Start: t0, End: t0.Add(time.Hour)}); err == nil {
		t.Error("critical rate below base should fail at declaration")
	}
}

func TestCPPPricing(t *testing.T) {
	cpp := newCPP(t, 0)
	if cpp.Kind() != Dynamic {
		t.Error("CPP classifies as dynamic")
	}
	if err := cpp.Declare(CriticalWindow{Start: t0.Add(time.Hour), End: t0.Add(2 * time.Hour)}); err != nil {
		t.Fatal(err)
	}
	if got := cpp.PriceAt(t0); got != 0.08 {
		t.Errorf("outside window price = %v", got)
	}
	if got := cpp.PriceAt(t0.Add(90 * time.Minute)); got != 1.20 {
		t.Errorf("inside window price = %v", got)
	}
	// Half-open window.
	if got := cpp.PriceAt(t0.Add(2 * time.Hour)); got != 0.08 {
		t.Errorf("window end price = %v", got)
	}
	// 1 MW for 3 h: hour 0 and 2 at base, hour 1 critical.
	load := timeseries.ConstantPower(t0, time.Hour, 3, 1000)
	got := cpp.Cost(load)
	want := units.CurrencyUnits(80 + 1200 + 80)
	if got != want {
		t.Errorf("cost = %v, want %v", got, want)
	}
	if !strings.Contains(cpp.Describe(), "critical-peak") {
		t.Error("describe")
	}
}

func TestCPPNoWindowsEqualsBase(t *testing.T) {
	cpp := newCPP(t, 0)
	base := MustNewFixed(0.08)
	load := timeseries.ConstantPower(t0, time.Hour, 24, 5000)
	if cpp.Cost(load) != base.Cost(load) {
		t.Error("CPP without windows must equal the base tariff")
	}
}
