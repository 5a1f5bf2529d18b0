// Package tariff implements the kWh branch of the paper's contract
// typology (Figure 1): prices mapped to energy consumption. Three kinds
// exist, exactly as the paper classifies them:
//
//   - Fixed: one price per kWh for the whole contractual period. Fixed
//     tariffs encourage energy-efficiency measures but provide no
//     incentive for demand-side management.
//   - Time-of-use (TOU): the kWh price varies across a known,
//     contractually defined time structure (seasonal pricing, day/night
//     pricing). TOU encourages static demand-side management.
//   - Dynamic: the kWh price follows real-time communication between
//     consumer and provider (a market feed). Dynamic tariffs encourage
//     demand response proper.
//
// A tariff prices energy only; demand charges and powerbands (the kW
// branch) live in package demand. Riders — a variable service charge
// applied on top of a fixed rate, the configuration the paper observed at
// the two sites holding both a fixed and a variable component — are
// expressed by giving a contract several tariff components.
package tariff

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/calendar"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// Kind classifies a tariff into the typology's kWh branch.
type Kind int

// Tariff kinds, in increasing order of demand-management incentive.
const (
	Fixed Kind = iota
	TimeOfUse
	Dynamic
)

var kindNames = map[Kind]string{
	Fixed:     "fixed",
	TimeOfUse: "time-of-use",
	Dynamic:   "dynamic",
}

// String returns the kind name used in tables and reports.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Incentive describes what consumption behaviour a tariff kind rewards,
// quoting the paper's own mapping (§3.2.1).
func (k Kind) Incentive() string {
	switch k {
	case Fixed:
		return "energy efficiency only; no demand-side management incentive"
	case TimeOfUse:
		return "static demand-side management (shift into known cheap windows)"
	case Dynamic:
		return "demand response (react to real-time price signals)"
	default:
		return "unknown"
	}
}

// Tariff prices the energy consumption of a load profile.
type Tariff interface {
	// Kind classifies the tariff within the typology.
	Kind() Kind
	// PriceAt returns the kWh price in effect at instant t.
	PriceAt(t time.Time) units.EnergyPrice
	// Cost prices an entire load profile: each sample's energy is
	// billed at the price in effect at the sample's interval start.
	Cost(load *timeseries.PowerSeries) units.Money
	// Describe returns a one-line human-readable description.
	Describe() string
}

// costByPriceAt bills every sample at PriceAt of its interval start,
// rounding per sample.
func costByPriceAt(t Tariff, load *timeseries.PowerSeries) units.Money {
	var total units.Money
	h := load.Interval().Hours()
	for i := 0; i < load.Len(); i++ {
		total += t.PriceAt(load.TimeAt(i)).Cost(units.Energy(float64(load.At(i)) * h))
	}
	return total
}

// FixedTariff is a single constant price per kWh.
type FixedTariff struct {
	Rate units.EnergyPrice
}

// NewFixed returns a fixed tariff at the given rate. Negative rates are
// rejected: a tariff is a price, not a subsidy.
func NewFixed(rate units.EnergyPrice) (*FixedTariff, error) {
	if rate < 0 {
		return nil, errors.New("tariff: fixed rate must be non-negative")
	}
	return &FixedTariff{Rate: rate}, nil
}

// MustNewFixed is NewFixed that panics on error.
func MustNewFixed(rate units.EnergyPrice) *FixedTariff {
	t, err := NewFixed(rate)
	if err != nil {
		panic(err)
	}
	return t
}

// Kind returns Fixed.
func (t *FixedTariff) Kind() Kind { return Fixed }

// PriceAt returns the constant rate regardless of instant.
func (t *FixedTariff) PriceAt(time.Time) units.EnergyPrice { return t.Rate }

// Cost prices the load at the flat rate.
func (t *FixedTariff) Cost(load *timeseries.PowerSeries) units.Money {
	return t.Rate.Cost(load.Energy())
}

// Describe returns a one-line description.
func (t *FixedTariff) Describe() string {
	return fmt.Sprintf("fixed tariff @ %s", t.Rate)
}

// TOUTariff prices energy by the named band a calendar.Schedule assigns
// to each instant — the "seasonal pricing and day/night pricing" form.
type TOUTariff struct {
	schedule *calendar.Schedule
	rates    map[string]units.EnergyPrice
}

// NewTOU builds a TOU tariff. Every label the schedule can produce must
// have a rate, and rates must be non-negative.
func NewTOU(schedule *calendar.Schedule, rates map[string]units.EnergyPrice) (*TOUTariff, error) {
	if schedule == nil {
		return nil, errors.New("tariff: TOU requires a schedule")
	}
	for _, label := range schedule.Labels() {
		r, ok := rates[label]
		if !ok {
			return nil, fmt.Errorf("tariff: TOU missing rate for band %q", label)
		}
		if r < 0 {
			return nil, fmt.Errorf("tariff: TOU rate for band %q is negative", label)
		}
	}
	cp := make(map[string]units.EnergyPrice, len(rates))
	for k, v := range rates {
		cp[k] = v
	}
	return &TOUTariff{schedule: schedule, rates: cp}, nil
}

// MustNewTOU is NewTOU that panics on error.
func MustNewTOU(schedule *calendar.Schedule, rates map[string]units.EnergyPrice) *TOUTariff {
	t, err := NewTOU(schedule, rates)
	if err != nil {
		panic(err)
	}
	return t
}

// Kind returns TimeOfUse.
func (t *TOUTariff) Kind() Kind { return TimeOfUse }

// PriceAt returns the rate of the band in effect at t.
func (t *TOUTariff) PriceAt(at time.Time) units.EnergyPrice {
	return t.rates[t.schedule.LabelAt(at)]
}

// Cost prices the load band by band.
func (t *TOUTariff) Cost(load *timeseries.PowerSeries) units.Money {
	return costByPriceAt(t, load)
}

// EnergyByBand decomposes a load profile's energy across the schedule's
// bands — the basis for static DSM analysis ("how much consumption sits
// in the peak window?").
func (t *TOUTariff) EnergyByBand(load *timeseries.PowerSeries) map[string]units.Energy {
	out := make(map[string]units.Energy)
	h := load.Interval().Hours()
	for i := 0; i < load.Len(); i++ {
		label := t.schedule.LabelAt(load.TimeAt(i))
		out[label] += units.Energy(float64(load.At(i)) * h)
	}
	return out
}

// Bands returns the band labels and their rates, sorted by label.
func (t *TOUTariff) Bands() []Band {
	labels := t.schedule.Labels()
	out := make([]Band, 0, len(labels))
	for _, l := range labels {
		out = append(out, Band{Label: l, Rate: t.rates[l]})
	}
	return out
}

// Band is one named TOU price band.
type Band struct {
	Label string
	Rate  units.EnergyPrice
}

// Describe returns a one-line description listing the bands.
func (t *TOUTariff) Describe() string {
	var parts []string
	for _, b := range t.Bands() {
		parts = append(parts, fmt.Sprintf("%s@%s", b.Label, b.Rate))
	}
	return "time-of-use tariff [" + strings.Join(parts, ", ") + "]"
}

// DynamicTariff prices energy from a real-time price feed, optionally
// transformed by a retail markup: price = feed × Multiplier + Adder.
// This models the "dynamically variable tariff ... subject to real-time
// communication between the consumer and the provider".
type DynamicTariff struct {
	feed       *timeseries.PriceSeries
	multiplier float64
	adder      units.EnergyPrice
}

// NewDynamic builds a dynamic tariff over a price feed. multiplier must
// be positive (a retailer passes through, it does not invert the market).
func NewDynamic(feed *timeseries.PriceSeries, multiplier float64, adder units.EnergyPrice) (*DynamicTariff, error) {
	if feed == nil {
		return nil, errors.New("tariff: dynamic requires a price feed")
	}
	if multiplier <= 0 {
		return nil, errors.New("tariff: dynamic multiplier must be positive")
	}
	return &DynamicTariff{feed: feed, multiplier: multiplier, adder: adder}, nil
}

// MustNewDynamic is NewDynamic that panics on error.
func MustNewDynamic(feed *timeseries.PriceSeries, multiplier float64, adder units.EnergyPrice) *DynamicTariff {
	t, err := NewDynamic(feed, multiplier, adder)
	if err != nil {
		panic(err)
	}
	return t
}

// PassThrough builds a dynamic tariff that charges the feed price as-is.
func PassThrough(feed *timeseries.PriceSeries) *DynamicTariff {
	return MustNewDynamic(feed, 1, 0)
}

// Kind returns Dynamic.
func (t *DynamicTariff) Kind() Kind { return Dynamic }

// PriceAt returns the marked-up feed price at t (clamping at feed edges).
func (t *DynamicTariff) PriceAt(at time.Time) units.EnergyPrice {
	p, _ := t.feed.PriceAt(at)
	return units.EnergyPrice(float64(p)*t.multiplier) + t.adder
}

// Cost prices the load against the feed.
func (t *DynamicTariff) Cost(load *timeseries.PowerSeries) units.Money {
	return costByPriceAt(t, load)
}

// Feed returns the underlying price series.
func (t *DynamicTariff) Feed() *timeseries.PriceSeries { return t.feed }

// Describe returns a one-line description.
func (t *DynamicTariff) Describe() string {
	return fmt.Sprintf("dynamic tariff (feed mean %s, ×%.2f %+.4f/kWh)",
		t.feed.Mean(), t.multiplier, float64(t.adder))
}

// Stack is an ordered list of tariff components applied additively to the
// same load — e.g. a fixed base rate plus a time-of-use service-charge
// rider (the Sites 1 and 9 configuration in the paper's Table 2).
type Stack struct {
	components []Tariff
}

// NewStack builds a stack; at least one component is required.
func NewStack(components ...Tariff) (*Stack, error) {
	if len(components) == 0 {
		return nil, errors.New("tariff: stack needs at least one component")
	}
	return &Stack{components: components}, nil
}

// MustNewStack is NewStack that panics on error.
func MustNewStack(components ...Tariff) *Stack {
	s, err := NewStack(components...)
	if err != nil {
		panic(err)
	}
	return s
}

// Components returns the stacked tariffs in application order.
func (s *Stack) Components() []Tariff {
	out := make([]Tariff, len(s.components))
	copy(out, s.components)
	return out
}

// Kind returns the most dynamic kind present: a stack containing any
// dynamic component is classified dynamic; else TOU if present; else
// fixed. This mirrors how the paper's Table 2 ticks multiple tariff
// columns per site while the discussion treats the most flexible
// component as the site's DR exposure.
func (s *Stack) Kind() Kind {
	best := Fixed
	for _, c := range s.components {
		if c.Kind() > best {
			best = c.Kind()
		}
	}
	return best
}

// Kinds returns the distinct kinds present, sorted.
func (s *Stack) Kinds() []Kind {
	set := map[Kind]bool{}
	for _, c := range s.components {
		set[c.Kind()] = true
	}
	out := make([]Kind, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PriceAt returns the summed effective price at t.
func (s *Stack) PriceAt(at time.Time) units.EnergyPrice {
	var sum units.EnergyPrice
	for _, c := range s.components {
		sum += c.PriceAt(at)
	}
	return sum
}

// Cost sums the component costs.
func (s *Stack) Cost(load *timeseries.PowerSeries) units.Money {
	var total units.Money
	for _, c := range s.components {
		total += c.Cost(load)
	}
	return total
}

// CostByComponent returns each component's contribution in order.
func (s *Stack) CostByComponent(load *timeseries.PowerSeries) []units.Money {
	out := make([]units.Money, len(s.components))
	for i, c := range s.components {
		out[i] = c.Cost(load)
	}
	return out
}

// Describe returns a one-line description of the whole stack.
func (s *Stack) Describe() string {
	parts := make([]string, len(s.components))
	for i, c := range s.components {
		parts[i] = c.Describe()
	}
	return strings.Join(parts, " + ")
}

var _ Tariff = (*FixedTariff)(nil)
var _ Tariff = (*TOUTariff)(nil)
var _ Tariff = (*DynamicTariff)(nil)
var _ Tariff = (*Stack)(nil)
