// Package procurement models the public-tender process the paper's CSCS
// case study describes (§4): the Swiss National Supercomputing Centre put
// its electricity procurement through a public procurement process,
// using external experts to design a power-contract model that (a)
// removed demand charges from the existing contract, (b) required an
// energy supply mix with 80 % renewable generation, and (c) defined a
// formula for calculating the electricity price in which four variables
// were left to the bidding ESPs — the bid is the chosen variable values.
//
// The package implements that mechanism generically: a Tender fixes the
// compliance rules and the price formula's variable ranges; ESP Bids fill
// in the variables; evaluation prices the buyer's reference load profile
// under each compliant bid and ranks them. A deterministic bid generator
// supports simulation studies of how much such a tender saves against a
// status-quo contract.
package procurement

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/contract"
	"repro/internal/demand"
	"repro/internal/tariff"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// Variable is one price-formula component left to the bidders. The
// effective energy price of a bid is the sum of its variable values, so
// each variable is expressed in currency per kWh.
type Variable struct {
	// Name identifies the component ("base-energy", "balancing", ...).
	Name string
	// Min and Max bound credible offers; bids outside are non-compliant.
	Min, Max units.EnergyPrice
}

// Tender is the buyer's published contract model.
type Tender struct {
	// Name of the tender.
	Name string
	// Variables are the formula components bidders must quote.
	// CSCS left four variables to the ESPs; any count ≥ 1 works.
	Variables []Variable
	// RenewableShareMin is the minimum renewable fraction of the supply
	// mix (CSCS: 0.80).
	RenewableShareMin float64
	// DisallowDemandCharges rejects bids that include a demand charge
	// (CSCS removed demand charges from their contract model).
	DisallowDemandCharges bool
	// ReferenceLoad is the buyer's expected consumption profile used to
	// price bids.
	ReferenceLoad *timeseries.PowerSeries
}

// Validate checks the tender.
func (t *Tender) Validate() error {
	if len(t.Variables) == 0 {
		return errors.New("procurement: tender needs at least one formula variable")
	}
	seen := map[string]bool{}
	for _, v := range t.Variables {
		if v.Name == "" {
			return errors.New("procurement: variable needs a name")
		}
		if seen[v.Name] {
			return fmt.Errorf("procurement: duplicate variable %q", v.Name)
		}
		seen[v.Name] = true
		if v.Min < 0 || v.Max < v.Min {
			return fmt.Errorf("procurement: variable %q has invalid range", v.Name)
		}
	}
	if t.RenewableShareMin < 0 || t.RenewableShareMin > 1 {
		return errors.New("procurement: renewable share must be in [0,1]")
	}
	if t.ReferenceLoad == nil || t.ReferenceLoad.Len() == 0 {
		return errors.New("procurement: tender needs a reference load profile")
	}
	return nil
}

// CSCSVariables returns the four-variable formula used throughout the
// reproduction: base energy, green premium, balancing services and
// supplier margin, each bounded to a plausible range.
func CSCSVariables() []Variable {
	return []Variable{
		{Name: "base-energy", Min: 0.020, Max: 0.080},
		{Name: "green-premium", Min: 0.000, Max: 0.020},
		{Name: "balancing", Min: 0.002, Max: 0.015},
		{Name: "margin", Min: 0.001, Max: 0.010},
	}
}

// Bid is one ESP's offer.
type Bid struct {
	// Bidder names the ESP.
	Bidder string
	// Values assigns each formula variable.
	Values map[string]units.EnergyPrice
	// RenewableShare is the offered supply-mix fraction.
	RenewableShare float64
	// DemandCharge, if non-nil, is a demand-charge rider the bidder
	// insists on (non-compliant when the tender disallows them).
	DemandCharge *demand.Charge
}

// EffectiveRate sums the variable values: the bid's energy price. The
// values are added in variable-name order, so a bid has one rate
// whatever the map's iteration order.
func (b *Bid) EffectiveRate() units.EnergyPrice {
	names := make([]string, 0, len(b.Values))
	for name := range b.Values {
		names = append(names, name)
	}
	sort.Strings(names)
	var sum units.EnergyPrice
	for _, name := range names {
		sum += b.Values[name]
	}
	return sum
}

// ComplianceError explains why a bid fails a tender's rules.
type ComplianceError struct {
	Bidder string
	Reason string
}

// Error implements error.
func (e *ComplianceError) Error() string {
	return fmt.Sprintf("procurement: bid from %s non-compliant: %s", e.Bidder, e.Reason)
}

// CheckCompliance verifies a bid against the tender.
func (t *Tender) CheckCompliance(b *Bid) error {
	for _, v := range t.Variables {
		val, ok := b.Values[v.Name]
		if !ok {
			return &ComplianceError{Bidder: b.Bidder, Reason: fmt.Sprintf("missing variable %q", v.Name)}
		}
		if val < v.Min || val > v.Max {
			return &ComplianceError{Bidder: b.Bidder, Reason: fmt.Sprintf("variable %q out of range", v.Name)}
		}
	}
	if len(b.Values) != len(t.Variables) {
		return &ComplianceError{Bidder: b.Bidder, Reason: "bid quotes variables outside the formula"}
	}
	if b.RenewableShare < t.RenewableShareMin {
		return &ComplianceError{Bidder: b.Bidder, Reason: fmt.Sprintf("renewable share %.0f%% below required %.0f%%",
			b.RenewableShare*100, t.RenewableShareMin*100)}
	}
	if t.DisallowDemandCharges && b.DemandCharge != nil {
		return &ComplianceError{Bidder: b.Bidder, Reason: "demand charges are disallowed by the contract model"}
	}
	return nil
}

// PriceBid returns the annual cost of the reference load under the bid:
// the bill of the contract the bid becomes, over the whole load as one
// period.
func (t *Tender) PriceBid(b *Bid) (units.Money, error) {
	if err := t.CheckCompliance(b); err != nil {
		return 0, err
	}
	c, err := bidContract(b.Bidder, b)
	if err != nil {
		return 0, err
	}
	bill, err := contract.ComputeBill(c, t.ReferenceLoad, contract.BillingInput{})
	if err != nil {
		return 0, err
	}
	return bill.Total, nil
}

// bidContract is the contract a bid becomes: a fixed tariff at the
// bid's effective rate, plus the bid's demand charge if it has one.
func bidContract(name string, b *Bid) (*contract.Contract, error) {
	ft, err := tariff.NewFixed(b.EffectiveRate())
	if err != nil {
		return nil, err
	}
	c := &contract.Contract{Name: name, Tariffs: []tariff.Tariff{ft}}
	if b.DemandCharge != nil {
		c.DemandCharges = append(c.DemandCharges, b.DemandCharge)
	}
	return c, nil
}

// ScoredBid is one evaluated offer.
type ScoredBid struct {
	Bid        *Bid
	AnnualCost units.Money
	Compliant  bool
	// Reason is set for non-compliant bids.
	Reason string
}

// Outcome is the tender result.
type Outcome struct {
	// Ranked lists compliant bids by ascending annual cost, followed by
	// non-compliant bids.
	Ranked []ScoredBid
	// Winner is the cheapest compliant bid (nil if none).
	Winner *ScoredBid
}

// Run evaluates all bids and returns the outcome.
func (t *Tender) Run(bids []*Bid) (*Outcome, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if len(bids) == 0 {
		return nil, errors.New("procurement: no bids received")
	}
	var compliant, rejected []ScoredBid
	for _, b := range bids {
		cost, err := t.PriceBid(b)
		if err != nil {
			var ce *ComplianceError
			if errors.As(err, &ce) {
				rejected = append(rejected, ScoredBid{Bid: b, Reason: ce.Reason})
				continue
			}
			return nil, err
		}
		compliant = append(compliant, ScoredBid{Bid: b, AnnualCost: cost, Compliant: true})
	}
	sort.SliceStable(compliant, func(a, b int) bool {
		return compliant[a].AnnualCost < compliant[b].AnnualCost
	})
	out := &Outcome{Ranked: append(compliant, rejected...)}
	if len(compliant) > 0 {
		out.Winner = &out.Ranked[0]
	}
	return out, nil
}

// WinnerContract converts the winning bid into an executable contract:
// a fixed tariff at the bid's effective rate (plus the bid's demand
// charge if the tender allowed one), the contract PriceBid priced.
func (o *Outcome) WinnerContract(name string) (*contract.Contract, error) {
	if o.Winner == nil {
		return nil, errors.New("procurement: tender produced no winner")
	}
	return bidContract(name, o.Winner.Bid)
}

// Savings compares the tender outcome against a status-quo contract on
// the tender's reference load: returns (statusQuoCost, winnerCost,
// absolute savings).
func (t *Tender) Savings(o *Outcome, statusQuo *contract.Contract) (units.Money, units.Money, units.Money, error) {
	if o.Winner == nil {
		return 0, 0, 0, errors.New("procurement: no winner to compare")
	}
	baseBill, err := contract.ComputeBill(statusQuo, t.ReferenceLoad, contract.BillingInput{})
	if err != nil {
		return 0, 0, 0, err
	}
	return baseBill.Total, o.Winner.AnnualCost, baseBill.Total - o.Winner.AnnualCost, nil
}

// BidGenConfig parameterizes the synthetic bid generator.
type BidGenConfig struct {
	// N is the number of bids to generate.
	N int
	// CompliantFraction of bids meet all rules; the rest violate the
	// renewable floor or sneak in a demand charge.
	CompliantFraction float64
	// Seed drives the deterministic generator.
	Seed int64
}

// GenerateBids draws synthetic ESP offers for the tender: variable
// values uniform within their ranges, renewable shares clustered just
// above (or for non-compliant bids below) the floor.
func GenerateBids(t *Tender, cfg BidGenConfig) ([]*Bid, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if cfg.N <= 0 {
		return nil, errors.New("procurement: need N >= 1 bids")
	}
	if cfg.CompliantFraction < 0 || cfg.CompliantFraction > 1 {
		return nil, errors.New("procurement: compliant fraction must be in [0,1]")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	bids := make([]*Bid, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		b := &Bid{
			Bidder: fmt.Sprintf("ESP-%02d", i+1),
			Values: make(map[string]units.EnergyPrice, len(t.Variables)),
		}
		for _, v := range t.Variables {
			span := float64(v.Max - v.Min)
			b.Values[v.Name] = v.Min + units.EnergyPrice(span*rng.Float64())
		}
		if rng.Float64() < cfg.CompliantFraction {
			b.RenewableShare = t.RenewableShareMin + (1-t.RenewableShareMin)*rng.Float64()
		} else if rng.Float64() < 0.5 && t.DisallowDemandCharges {
			// Non-compliant via a demand-charge rider.
			b.RenewableShare = t.RenewableShareMin + (1-t.RenewableShareMin)*rng.Float64()
			b.DemandCharge = demand.SimpleCharge(10)
		} else {
			// Non-compliant via a weak supply mix.
			b.RenewableShare = t.RenewableShareMin * rng.Float64()
		}
		bids = append(bids, b)
	}
	return bids, nil
}
