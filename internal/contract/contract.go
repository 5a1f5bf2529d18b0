// Package contract composes tariff components (kWh branch), demand
// components (kW branch) and emergency-DR obligations ("other" branch)
// into a complete SC electricity service contract, mirrors the paper's
// contract typology (Figure 1) as a type system, classifies arbitrary
// contracts against that typology, and computes itemized bills.
//
// A Contract is what a supercomputing center actually signs: one or more
// energy tariffs, zero or more demand charges, zero or more powerbands,
// optional mandatory emergency-DR obligations, and fixed service fees.
// Location-specific taxes and service fees are representable as fixed
// fees but are excluded from the typology, exactly as the paper excludes
// them ("these are not included in the typology as they cannot be
// generalized").
package contract

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/billing"
	"repro/internal/demand"
	"repro/internal/tariff"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// Component identifies a leaf of the contract typology — exactly the six
// columns of the paper's Table 2 — plus CompFlatFee for bill lines that
// fall outside the typology.
type Component int

// Typology leaves.
const (
	CompDemandCharge Component = iota
	CompPowerband
	CompFixedTariff
	CompTOUTariff
	CompDynamicTariff
	CompEmergencyDR
	// CompFlatFee marks flat service fees and folded taxes. It is not a
	// typology leaf (the paper excludes fees as "they cannot be
	// generalized") and so is absent from AllComponents, but bill lines
	// need a real component value for ComponentTotal and JSON export.
	CompFlatFee
)

var componentNames = map[Component]string{
	CompDemandCharge:  "demand-charge",
	CompPowerband:     "powerband",
	CompFixedTariff:   "fixed-tariff",
	CompTOUTariff:     "time-of-use-tariff",
	CompDynamicTariff: "dynamic-tariff",
	CompEmergencyDR:   "emergency-dr",
	CompFlatFee:       "flat-fee",
}

// String returns the component's typology name.
func (c Component) String() string {
	if n, ok := componentNames[c]; ok {
		return n
	}
	return fmt.Sprintf("Component(%d)", int(c))
}

// Branch returns the typology branch the component belongs to:
// "tariffs (kWh)", "demand charges (kW)" or "other".
func (c Component) Branch() string {
	switch c {
	case CompFixedTariff, CompTOUTariff, CompDynamicTariff:
		return "tariffs (kWh)"
	case CompDemandCharge, CompPowerband:
		return "demand charges (kW)"
	case CompEmergencyDR:
		return "other"
	case CompFlatFee:
		return "fees"
	default:
		return "unknown"
	}
}

// AllComponents lists the typology leaves in Table 2 column order.
// CompFlatFee is excluded: it is not part of the typology.
func AllComponents() []Component {
	return []Component{
		CompDemandCharge, CompPowerband,
		CompFixedTariff, CompTOUTariff, CompDynamicTariff,
		CompEmergencyDR,
	}
}

// EmergencyObligation is the "other" branch: a mandatory emergency-DR
// element imposed by the ESP. When the ESP declares a grid emergency the
// site must reduce consumption to at most Cap within Notice; consumption
// above the cap during a declared event is penalized per kWh of excess.
// As the paper notes, unlike commercial DR programs these are mandatory.
type EmergencyObligation struct {
	// Name of the program (e.g. the regional emergency DR scheme).
	Name string
	// Cap is the maximum allowed draw during a declared emergency.
	Cap units.Power
	// Notice is the lead time the ESP gives before the cap applies.
	Notice time.Duration
	// Penalty prices energy drawn above Cap during an event.
	Penalty units.EnergyPrice
}

// Validate checks the obligation's fields.
func (o *EmergencyObligation) Validate() error {
	if o.Cap < 0 {
		return errors.New("contract: emergency cap must be non-negative")
	}
	if o.Penalty < 0 {
		return errors.New("contract: emergency penalty must be non-negative")
	}
	if o.Notice < 0 {
		return errors.New("contract: emergency notice must be non-negative")
	}
	return nil
}

// Describe returns a one-line description.
func (o *EmergencyObligation) Describe() string {
	name := o.Name
	if name == "" {
		name = "emergency DR"
	}
	return fmt.Sprintf("%s: cap %s on %s notice, excess @ %s",
		name, o.Cap, o.Notice, o.Penalty)
}

// EmergencyEvent is one declared grid emergency: between Start and
// Start+Duration the obligation's cap applies.
type EmergencyEvent struct {
	Start    time.Time
	Duration time.Duration
}

// End returns the instant the event ends.
func (e EmergencyEvent) End() time.Time { return e.Start.Add(e.Duration) }

// Covers reports whether instant t falls inside the event.
func (e EmergencyEvent) Covers(t time.Time) bool {
	return !t.Before(e.Start) && t.Before(e.End())
}

// Cost returns the penalty incurred by a load profile for a set of
// declared events under this obligation.
func (o *EmergencyObligation) Cost(load *timeseries.PowerSeries, events []EmergencyEvent) units.Money {
	if len(events) == 0 {
		return 0
	}
	var total units.Money
	h := load.Interval().Hours()
	for i := 0; i < load.Len(); i++ {
		ts := load.TimeAt(i)
		covered := false
		for _, e := range events {
			if e.Covers(ts) {
				covered = true
				break
			}
		}
		if !covered {
			continue
		}
		if p := load.At(i); p > o.Cap {
			total += o.Penalty.Cost(units.Energy(float64(p-o.Cap) * h))
		}
	}
	return total
}

// SpanFamily attributes scan cost to the emergency-DR family
// (the typology's "other" branch) in span traces.
func (o *EmergencyObligation) SpanFamily() string { return "emergency" }

var _ billing.LineItemProducer = (*EmergencyObligation)(nil)

// FixedFee is a flat per-billing-period amount (service fees, metering
// fees, taxes folded to a constant). Excluded from the typology.
type FixedFee struct {
	Name   string
	Amount units.Money
}

// Contract is a complete SC electricity service contract.
type Contract struct {
	// Name identifies the contract (site name, tariff code, ...).
	Name string
	// Tariffs is the kWh branch: one or more energy-pricing components
	// applied additively (a fixed base plus TOU rider is two entries).
	Tariffs []tariff.Tariff
	// DemandCharges is the kW branch's per-period peak pricing.
	DemandCharges []*demand.Charge
	// Powerbands is the kW branch's consumption-boundary components.
	Powerbands []*demand.Powerband
	// Emergencies are mandatory emergency-DR obligations.
	Emergencies []*EmergencyObligation
	// Fees are flat per-period amounts outside the typology.
	Fees []FixedFee
}

// Validate checks the contract is billable: at least one tariff and all
// obligations valid.
func (c *Contract) Validate() error {
	if c == nil {
		return errors.New("contract: nil contract")
	}
	if len(c.Tariffs) == 0 {
		return fmt.Errorf("contract %q: needs at least one tariff component", c.Name)
	}
	for _, t := range c.Tariffs {
		if t == nil {
			return fmt.Errorf("contract %q: nil tariff component", c.Name)
		}
	}
	for _, o := range c.Emergencies {
		if err := o.Validate(); err != nil {
			return fmt.Errorf("contract %q: %w", c.Name, err)
		}
	}
	return nil
}

// Profile is the typology classification of a contract: which Table 2
// columns it ticks.
type Profile struct {
	DemandCharge  bool
	Powerband     bool
	FixedTariff   bool
	TOUTariff     bool
	DynamicTariff bool
	EmergencyDR   bool
}

// Has reports whether the profile contains the given component.
func (p Profile) Has(c Component) bool {
	switch c {
	case CompDemandCharge:
		return p.DemandCharge
	case CompPowerband:
		return p.Powerband
	case CompFixedTariff:
		return p.FixedTariff
	case CompTOUTariff:
		return p.TOUTariff
	case CompDynamicTariff:
		return p.DynamicTariff
	case CompEmergencyDR:
		return p.EmergencyDR
	default:
		return false
	}
}

// Components lists the components present, in Table 2 column order.
func (p Profile) Components() []Component {
	var out []Component
	for _, c := range AllComponents() {
		if p.Has(c) {
			out = append(out, c)
		}
	}
	return out
}

// EncouragesDSM reports whether the contract gives any demand-side
// management incentive (anything beyond a pure fixed tariff does).
func (p Profile) EncouragesDSM() bool {
	return p.DemandCharge || p.Powerband || p.TOUTariff || p.DynamicTariff || p.EmergencyDR
}

// EncouragesRealTimeDR reports whether the contract has any real-time DR
// element (dynamic tariff or emergency DR). Demand charges and powerbands
// encourage DSM "but are not DR (real-time) programs" (§3.2.2).
func (p Profile) EncouragesRealTimeDR() bool {
	return p.DynamicTariff || p.EmergencyDR
}

// String renders the ticked components.
func (p Profile) String() string {
	var parts []string
	for _, c := range p.Components() {
		parts = append(parts, c.String())
	}
	if len(parts) == 0 {
		return "(none)"
	}
	return strings.Join(parts, ", ")
}

// Classify maps a contract onto the typology. Each tariff entry ticks
// its own kind, so the paper's "variable service-charge applied on top
// of their fixed rate tariff" sites, a fixed entry plus a rider entry,
// tick both Fixed and Variable.
func Classify(c *Contract) Profile {
	var p Profile
	for _, t := range c.Tariffs {
		switch t.Kind() {
		case tariff.Fixed:
			p.FixedTariff = true
		case tariff.TimeOfUse:
			p.TOUTariff = true
		case tariff.Dynamic:
			p.DynamicTariff = true
		}
	}
	p.DemandCharge = len(c.DemandCharges) > 0
	p.Powerband = len(c.Powerbands) > 0
	p.EmergencyDR = len(c.Emergencies) > 0
	return p
}

// LineItem is one itemized bill entry.
type LineItem struct {
	// Component is the typology leaf the item belongs to, or CompFlatFee
	// for items outside the typology (fees).
	Component Component
	// Description is the human-readable label.
	Description string
	// Quantity describes the billed quantity ("8.40 GWh", "15.00 MW").
	Quantity string
	// Amount is the exact charge.
	Amount units.Money
}

// Bill is an itemized bill for one billing period.
type Bill struct {
	Contract string
	// PeriodStart / PeriodEnd delimit the billed interval.
	PeriodStart time.Time
	PeriodEnd   time.Time
	// Energy is the total consumption billed.
	Energy units.Energy
	// PeakDemand is the highest metered interval in the period.
	PeakDemand units.Power
	// Lines are the itemized entries; Total is their exact sum.
	Lines []LineItem
	Total units.Money
}

// ComponentTotal sums the bill lines belonging to component c.
func (b *Bill) ComponentTotal(c Component) units.Money {
	var total units.Money
	for _, l := range b.Lines {
		if l.Component == c {
			total += l.Amount
		}
	}
	return total
}

// DemandShare returns the fraction of the total bill attributable to the
// kW branch (demand charges + powerbands) — the quantity Xu & Li's study
// (cited in §2) relates to the peak/average ratio.
func (b *Bill) DemandShare() float64 {
	if b.Total == 0 {
		return 0
	}
	kw := b.ComponentTotal(CompDemandCharge) + b.ComponentTotal(CompPowerband)
	return kw.Float() / b.Total.Float()
}

// String renders a compact bill summary.
func (b *Bill) String() string {
	return fmt.Sprintf("Bill[%s %s–%s: %s, peak %s, total %s]",
		b.Contract,
		b.PeriodStart.Format("2006-01-02"), b.PeriodEnd.Format("2006-01-02"),
		b.Energy, b.PeakDemand, b.Total)
}

// BillingInput carries the optional context a bill computation may need.
type BillingInput struct {
	// HistoricalPeak feeds ratchet demand charges (0 if none).
	HistoricalPeak units.Power
	// Events are the grid emergencies declared during the period.
	Events []EmergencyEvent
}

// ComputeBill prices one billing period's load profile under the
// contract. The bill's Total is always the exact sum of its Lines.
//
// It is a convenience wrapper that compiles the contract into an Engine
// and evaluates one period; callers billing the same contract many
// times (optimizers, sweeps) should build the Engine once and reuse it.
func ComputeBill(c *Contract, load *timeseries.PowerSeries, in BillingInput) (*Bill, error) {
	eng, err := NewEngine(c)
	if err != nil {
		return nil, err
	}
	return eng.Bill(load, in)
}

func tariffComponent(t tariff.Tariff) Component {
	switch t.Kind() {
	case tariff.TimeOfUse:
		return CompTOUTariff
	case tariff.Dynamic:
		return CompDynamicTariff
	default:
		return CompFixedTariff
	}
}

// BillMonths splits a load profile into calendar months and bills each
// month, threading the running historical peak into ratchet charges.
// Months are evaluated concurrently (see Engine.BillMonths).
func BillMonths(c *Contract, load *timeseries.PowerSeries, in BillingInput) ([]*Bill, error) {
	eng, err := NewEngine(c)
	if err != nil {
		return nil, err
	}
	return eng.BillMonths(load, in)
}

// TotalOf sums the totals of a set of bills.
func TotalOf(bills []*Bill) units.Money {
	var total units.Money
	for _, b := range bills {
		total += b.Total
	}
	return total
}
