package procurement

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/contract"
	"repro/internal/demand"
	"repro/internal/tariff"
	"repro/internal/timeseries"
	"repro/internal/units"
)

var t0 = time.Date(2016, time.January, 1, 0, 0, 0, 0, time.UTC)

func refLoad() *timeseries.PowerSeries {
	// Flat 5 MW for 30 days: 3.6 GWh.
	return timeseries.ConstantPower(t0, time.Hour, 30*24, 5000)
}

func cscsTender() *Tender {
	return &Tender{
		Name:                  "CSCS-style tender",
		Variables:             CSCSVariables(),
		RenewableShareMin:     0.80,
		DisallowDemandCharges: true,
		ReferenceLoad:         refLoad(),
	}
}

func compliantBid(name string, base units.EnergyPrice) *Bid {
	return &Bid{
		Bidder: name,
		Values: map[string]units.EnergyPrice{
			"base-energy":   base,
			"green-premium": 0.005,
			"balancing":     0.003,
			"margin":        0.002,
		},
		RenewableShare: 0.85,
	}
}

func TestTenderValidate(t *testing.T) {
	if err := cscsTender().Validate(); err != nil {
		t.Errorf("good tender: %v", err)
	}
	bad := []*Tender{
		{ReferenceLoad: refLoad()},
		{Variables: []Variable{{Name: ""}}, ReferenceLoad: refLoad()},
		{Variables: []Variable{{Name: "a"}, {Name: "a"}}, ReferenceLoad: refLoad()},
		{Variables: []Variable{{Name: "a", Min: -1, Max: 1}}, ReferenceLoad: refLoad()},
		{Variables: []Variable{{Name: "a", Min: 2, Max: 1}}, ReferenceLoad: refLoad()},
		{Variables: []Variable{{Name: "a", Max: 1}}, RenewableShareMin: 1.5, ReferenceLoad: refLoad()},
		{Variables: []Variable{{Name: "a", Max: 1}}},
	}
	for i, tt := range bad {
		if err := tt.Validate(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestCSCSVariablesShape(t *testing.T) {
	vars := CSCSVariables()
	if len(vars) != 4 {
		t.Fatalf("CSCS left four variables to the ESPs, got %d", len(vars))
	}
	for _, v := range vars {
		if v.Name == "" || v.Max <= 0 {
			t.Errorf("variable %+v malformed", v)
		}
	}
}

func TestComplianceChecks(t *testing.T) {
	tender := cscsTender()
	// Missing variable.
	b := compliantBid("x", 0.04)
	delete(b.Values, "margin")
	if err := tender.CheckCompliance(b); err == nil {
		t.Error("missing variable should fail")
	}
	// Out of range.
	b2 := compliantBid("x", 0.50)
	if err := tender.CheckCompliance(b2); err == nil {
		t.Error("out-of-range variable should fail")
	}
	// Extra variable.
	b3 := compliantBid("x", 0.04)
	b3.Values["sneaky-fee"] = 0.01
	if err := tender.CheckCompliance(b3); err == nil {
		t.Error("extra variable should fail")
	}
	// Weak renewable share.
	b4 := compliantBid("x", 0.04)
	b4.RenewableShare = 0.5
	if err := tender.CheckCompliance(b4); err == nil {
		t.Error("weak supply mix should fail")
	}
	// Demand-charge rider.
	b5 := compliantBid("x", 0.04)
	b5.DemandCharge = demand.SimpleCharge(10)
	err := tender.CheckCompliance(b5)
	if err == nil {
		t.Error("demand charge should fail when disallowed")
	}
	var ce *ComplianceError
	if !errors.As(err, &ce) || !strings.Contains(ce.Error(), "disallowed") {
		t.Errorf("error should be a ComplianceError: %v", err)
	}
	// Fully compliant.
	if err := tender.CheckCompliance(compliantBid("x", 0.04)); err != nil {
		t.Errorf("compliant bid rejected: %v", err)
	}
}

func TestPriceBid(t *testing.T) {
	tender := cscsTender()
	b := compliantBid("x", 0.040)
	cost, err := tender.PriceBid(b)
	if err != nil {
		t.Fatal(err)
	}
	// Rate = 0.040+0.005+0.003+0.002 = 0.050; energy = 3.6 GWh → 180,000.
	if cost != units.CurrencyUnits(180000) {
		t.Errorf("cost = %v, want 180,000", cost)
	}
	// A tender that allows demand charges bills the rider too: the
	// flat 5 MW peak at 10/kW adds 50,000.
	tender.DisallowDemandCharges = false
	b.DemandCharge = demand.SimpleCharge(10)
	cost, err = tender.PriceBid(b)
	if err != nil {
		t.Fatal(err)
	}
	if cost != units.CurrencyUnits(230000) {
		t.Errorf("cost with demand charge = %v, want 230,000", cost)
	}
}

// The rate of a bid must not depend on the map's iteration order:
// 0.1+0.2+0.3 and 0.3+0.2+0.1 differ in the last bit.
func TestEffectiveRateDeterministic(t *testing.T) {
	b := &Bid{Values: map[string]units.EnergyPrice{"a": 0.1, "b": 0.2, "c": 0.3}}
	want := b.EffectiveRate()
	for i := 0; i < 100; i++ {
		if got := b.EffectiveRate(); got != want {
			t.Fatalf("call %d: rate %v != first call's %v", i, float64(got), float64(want))
		}
	}
}

func TestRunTenderRanksByCost(t *testing.T) {
	tender := cscsTender()
	cheap := compliantBid("cheap", 0.030)
	mid := compliantBid("mid", 0.045)
	pricey := compliantBid("pricey", 0.070)
	nc := compliantBid("nc", 0.025)
	nc.RenewableShare = 0.10
	outcome, err := tender.Run([]*Bid{pricey, nc, cheap, mid})
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Winner == nil || outcome.Winner.Bid.Bidder != "cheap" {
		t.Fatalf("winner = %+v", outcome.Winner)
	}
	if len(outcome.Ranked) != 4 {
		t.Fatalf("ranked = %d", len(outcome.Ranked))
	}
	// Compliant ordering.
	if outcome.Ranked[0].Bid.Bidder != "cheap" || outcome.Ranked[1].Bid.Bidder != "mid" || outcome.Ranked[2].Bid.Bidder != "pricey" {
		t.Error("compliant bids must rank by ascending cost")
	}
	last := outcome.Ranked[3]
	if last.Compliant || last.Reason == "" {
		t.Errorf("non-compliant bid should carry a reason: %+v", last)
	}
}

func TestRunTenderErrors(t *testing.T) {
	bad := &Tender{}
	if _, err := bad.Run([]*Bid{compliantBid("x", 0.04)}); err == nil {
		t.Error("invalid tender should fail")
	}
	if _, err := cscsTender().Run(nil); err == nil {
		t.Error("no bids should fail")
	}
}

func TestRunTenderNoCompliantBids(t *testing.T) {
	tender := cscsTender()
	nc := compliantBid("nc", 0.04)
	nc.RenewableShare = 0
	outcome, err := tender.Run([]*Bid{nc})
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Winner != nil {
		t.Error("no compliant bids, no winner")
	}
	if _, err := outcome.WinnerContract("w"); err == nil {
		t.Error("WinnerContract should fail without a winner")
	}
	if _, _, _, err := tender.Savings(outcome, nil); err == nil {
		t.Error("Savings should fail without a winner")
	}
}

func TestWinnerContract(t *testing.T) {
	tender := cscsTender()
	outcome, err := tender.Run([]*Bid{compliantBid("w", 0.040)})
	if err != nil {
		t.Fatal(err)
	}
	c, err := outcome.WinnerContract("post-tender")
	if err != nil {
		t.Fatal(err)
	}
	p := contract.Classify(c)
	if !p.FixedTariff || p.DemandCharge {
		t.Errorf("winner contract profile = %+v; CSCS removed demand charges", p)
	}
	bill, err := contract.ComputeBill(c, tender.ReferenceLoad, contract.BillingInput{})
	if err != nil {
		t.Fatal(err)
	}
	if bill.Total != outcome.Winner.AnnualCost {
		t.Errorf("contract bill %v != scored cost %v", bill.Total, outcome.Winner.AnnualCost)
	}
}

func TestSavingsVersusStatusQuo(t *testing.T) {
	tender := cscsTender()
	outcome, err := tender.Run([]*Bid{compliantBid("w", 0.040)})
	if err != nil {
		t.Fatal(err)
	}
	// Status quo: higher fixed rate plus the demand charge CSCS removed.
	statusQuo := &contract.Contract{
		Name:          "status-quo",
		Tariffs:       []tariff.Tariff{tariff.MustNewFixed(0.060)},
		DemandCharges: []*demand.Charge{demand.SimpleCharge(11)},
	}
	base, won, saved, err := tender.Savings(outcome, statusQuo)
	if err != nil {
		t.Fatal(err)
	}
	if saved <= 0 {
		t.Errorf("CSCS-style tender should save: base %v, won %v", base, won)
	}
	if base-won != saved {
		t.Error("savings must equal the difference")
	}
}

func TestGenerateBids(t *testing.T) {
	tender := cscsTender()
	bids, err := GenerateBids(tender, BidGenConfig{N: 40, CompliantFraction: 0.7, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(bids) != 40 {
		t.Fatalf("bids = %d", len(bids))
	}
	compliant := 0
	for _, b := range bids {
		if len(b.Values) != 4 {
			t.Fatalf("bid %s quotes %d variables", b.Bidder, len(b.Values))
		}
		if tender.CheckCompliance(b) == nil {
			compliant++
		}
	}
	// Around 70% compliant (loose bound for a random draw).
	if compliant < 20 || compliant > 38 {
		t.Errorf("compliant = %d of 40, want ≈28", compliant)
	}
	// Deterministic.
	again, _ := GenerateBids(tender, BidGenConfig{N: 40, CompliantFraction: 0.7, Seed: 11})
	for i := range bids {
		if bids[i].Bidder != again[i].Bidder || bids[i].RenewableShare != again[i].RenewableShare {
			t.Fatal("equal seeds must reproduce bids")
		}
	}
}

func TestGenerateBidsValidation(t *testing.T) {
	tender := cscsTender()
	if _, err := GenerateBids(tender, BidGenConfig{N: 0}); err == nil {
		t.Error("N=0 should fail")
	}
	if _, err := GenerateBids(tender, BidGenConfig{N: 5, CompliantFraction: 2}); err == nil {
		t.Error("bad fraction should fail")
	}
	if _, err := GenerateBids(&Tender{}, BidGenConfig{N: 5}); err == nil {
		t.Error("invalid tender should fail")
	}
}

func TestEndToEndTenderSimulation(t *testing.T) {
	tender := cscsTender()
	bids, err := GenerateBids(tender, BidGenConfig{N: 25, CompliantFraction: 0.8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	outcome, err := tender.Run(bids)
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Winner == nil {
		t.Fatal("25 bids at 80% compliance should produce a winner")
	}
	// Winner must be compliant and cheapest among compliant.
	for _, s := range outcome.Ranked {
		if s.Compliant && s.AnnualCost < outcome.Winner.AnnualCost {
			t.Error("winner is not the cheapest compliant bid")
		}
	}
}
