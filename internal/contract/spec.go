package contract

// This file defines a JSON-serializable contract specification so that
// contracts can be stored on disk, shipped to the cmd tools, and compared
// across sites. A Spec is deliberately less general than a Contract (it
// covers the configurations the survey actually observed: fixed rates,
// day/night or seasonal TOU, market-indexed dynamic rates); Build turns a
// Spec into an executable Contract.

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/calendar"
	"repro/internal/demand"
	"repro/internal/tariff"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// Spec is the serializable form of a contract.
type Spec struct {
	Name    string       `json:"name"`
	Tariffs []TariffSpec `json:"tariffs"`
	// DemandCharges configures the kW branch.
	DemandCharges []DemandChargeSpec `json:"demand_charges,omitempty"`
	Powerbands    []PowerbandSpec    `json:"powerbands,omitempty"`
	Emergencies   []EmergencySpec    `json:"emergencies,omitempty"`
	Fees          []FeeSpec          `json:"fees,omitempty"`
}

// TariffSpec configures one tariff component. Type selects the variant:
// "fixed" (Rate), "tou" (DayRate/NightRate/DayFrom/DayTo, optionally
// seasonal with SummerDayRate), or "dynamic" (Multiplier/Adder over the
// feed supplied at Build time).
type TariffSpec struct {
	Type string `json:"type"`
	// Rate is the fixed price (fixed type).
	Rate float64 `json:"rate,omitempty"`
	// TOU configuration.
	DayRate       float64 `json:"day_rate,omitempty"`
	NightRate     float64 `json:"night_rate,omitempty"`
	SummerDayRate float64 `json:"summer_day_rate,omitempty"`
	DayFrom       int     `json:"day_from,omitempty"`
	DayTo         int     `json:"day_to,omitempty"`
	// Dynamic configuration: effective price = feed × Multiplier + Adder.
	Multiplier float64 `json:"multiplier,omitempty"`
	Adder      float64 `json:"adder,omitempty"`
	// FallbackRate is the fixed backstop price a dynamic tariff bills at
	// when the market feed is unavailable past its staleness budget —
	// the contractual "if the index is not published, the price of the
	// last schedule applies" clause. 0 means the biller's default.
	FallbackRate float64 `json:"fallback_rate,omitempty"`
	// CPP configuration ("cpp" type): a fixed base at Rate with
	// CriticalRate during declared events, at most MaxCriticalEvents
	// per period (0 = unlimited). Events are declared at runtime on the
	// built *tariff.CPPTariff.
	CriticalRate      float64 `json:"critical_rate,omitempty"`
	MaxCriticalEvents int     `json:"max_critical_events,omitempty"`
}

// DemandChargeSpec configures one demand charge.
type DemandChargeSpec struct {
	// PricePerKW is the demand price in currency/kW/period.
	PricePerKW float64 `json:"price_per_kw"`
	// Method is "single-peak", "n-peak-average" (default) or "ratchet".
	Method string `json:"method,omitempty"`
	NPeaks int    `json:"n_peaks,omitempty"`
	// RatchetFraction applies to the ratchet method.
	RatchetFraction float64 `json:"ratchet_fraction,omitempty"`
}

// PowerbandSpec configures one powerband. Limits are in kW; a zero or
// omitted LowerKW yields an upper-only band.
type PowerbandSpec struct {
	LowerKW      float64 `json:"lower_kw,omitempty"`
	UpperKW      float64 `json:"upper_kw"`
	UnderPenalty float64 `json:"under_penalty,omitempty"`
	OverPenalty  float64 `json:"over_penalty"`
}

// EmergencySpec configures one emergency-DR obligation.
type EmergencySpec struct {
	Name          string  `json:"name,omitempty"`
	CapKW         float64 `json:"cap_kw"`
	NoticeMinutes int     `json:"notice_minutes,omitempty"`
	Penalty       float64 `json:"penalty"`
}

// FeeSpec configures one flat fee.
type FeeSpec struct {
	Name   string  `json:"name"`
	Amount float64 `json:"amount"`
}

// BuildContext supplies runtime inputs a Spec may need — currently the
// price feed behind dynamic tariffs and an optional holiday calendar.
type BuildContext struct {
	Feed     *timeseries.PriceSeries
	Holidays *calendar.HolidayCalendar
}

// FlatFeedRate is the price per kWh of the flat reference feed that
// dynamic tariffs bill against when no market data is supplied.
const FlatFeedRate = 0.045

// FlatFeed returns a flat reference feed at rate: one hourly sample
// from start. A dynamic tariff clamps at its feed's edges, so that one
// sample prices every instant of any load alike.
func FlatFeed(start time.Time, rate units.EnergyPrice) *timeseries.PriceSeries {
	return timeseries.ConstantPrice(start, time.Hour, 1, rate)
}

// Build turns the spec into an executable Contract.
func (s *Spec) Build(ctx BuildContext) (*Contract, error) {
	if s.Name == "" {
		return nil, errors.New("contract: spec needs a name")
	}
	c := &Contract{Name: s.Name}
	for i, ts := range s.Tariffs {
		t, err := ts.build(ctx)
		if err != nil {
			return nil, fmt.Errorf("contract %q tariff %d: %w", s.Name, i, err)
		}
		c.Tariffs = append(c.Tariffs, t)
	}
	for i, ds := range s.DemandCharges {
		dc, err := ds.build()
		if err != nil {
			return nil, fmt.Errorf("contract %q demand charge %d: %w", s.Name, i, err)
		}
		c.DemandCharges = append(c.DemandCharges, dc)
	}
	for i, ps := range s.Powerbands {
		pb, err := ps.build()
		if err != nil {
			return nil, fmt.Errorf("contract %q powerband %d: %w", s.Name, i, err)
		}
		c.Powerbands = append(c.Powerbands, pb)
	}
	for _, es := range s.Emergencies {
		o := &EmergencyObligation{
			Name:    es.Name,
			Cap:     units.Power(es.CapKW),
			Notice:  time.Duration(es.NoticeMinutes) * time.Minute,
			Penalty: units.EnergyPrice(es.Penalty),
		}
		if err := o.Validate(); err != nil {
			return nil, fmt.Errorf("contract %q: %w", s.Name, err)
		}
		c.Emergencies = append(c.Emergencies, o)
	}
	for _, fs := range s.Fees {
		c.Fees = append(c.Fees, FixedFee{Name: fs.Name, Amount: units.MoneyFromFloat(fs.Amount)})
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// FallbackSpec returns a copy of the spec with every dynamic tariff
// replaced by a fixed tariff at its declared FallbackRate (or
// defaultRate when the spec declares none). This is the degraded-mode
// contract: when the price feed is down past its staleness budget the
// bill is computed against the fixed backstop instead of market data.
// Specs without dynamic tariffs are returned unchanged.
func (s *Spec) FallbackSpec(defaultRate float64) *Spec {
	changed := false
	out := *s
	out.Tariffs = make([]TariffSpec, len(s.Tariffs))
	copy(out.Tariffs, s.Tariffs)
	for i, ts := range out.Tariffs {
		if ts.Type != "dynamic" {
			continue
		}
		rate := ts.FallbackRate
		if rate == 0 {
			rate = defaultRate
		}
		out.Tariffs[i] = TariffSpec{Type: "fixed", Rate: rate}
		changed = true
	}
	if !changed {
		return s
	}
	return &out
}

func (ts TariffSpec) build(ctx BuildContext) (tariff.Tariff, error) {
	switch ts.Type {
	case "fixed":
		return tariff.NewFixed(units.EnergyPrice(ts.Rate))
	case "tou":
		from, to := ts.DayFrom, ts.DayTo
		if from == 0 && to == 0 {
			from, to = 8, 20
		}
		if ts.SummerDayRate > 0 {
			sched := calendar.SeasonalDayNight(from, to, ctx.Holidays)
			return tariff.NewTOU(sched, map[string]units.EnergyPrice{
				"summer-peak": units.EnergyPrice(ts.SummerDayRate),
				"peak":        units.EnergyPrice(ts.DayRate),
				"offpeak":     units.EnergyPrice(ts.NightRate),
			})
		}
		sched := calendar.DayNight(from, to, ctx.Holidays)
		return tariff.NewTOU(sched, map[string]units.EnergyPrice{
			"peak":    units.EnergyPrice(ts.DayRate),
			"offpeak": units.EnergyPrice(ts.NightRate),
		})
	case "dynamic":
		if ctx.Feed == nil {
			return nil, errors.New("dynamic tariff requires a price feed in the build context")
		}
		mult := ts.Multiplier
		if mult == 0 {
			mult = 1
		}
		return tariff.NewDynamic(ctx.Feed, mult, units.EnergyPrice(ts.Adder))
	case "cpp":
		base, err := tariff.NewFixed(units.EnergyPrice(ts.Rate))
		if err != nil {
			return nil, err
		}
		return tariff.NewCPP(base, units.EnergyPrice(ts.CriticalRate), ts.MaxCriticalEvents)
	default:
		return nil, fmt.Errorf("unknown tariff type %q", ts.Type)
	}
}

func (ds DemandChargeSpec) build() (*demand.Charge, error) {
	method := demand.NPeakAverage
	n := ds.NPeaks
	switch ds.Method {
	case "", "n-peak-average":
		if n == 0 {
			n = 3
		}
	case "single-peak":
		method = demand.SinglePeak
	case "ratchet":
		method = demand.Ratchet
	default:
		return nil, fmt.Errorf("unknown demand-charge method %q", ds.Method)
	}
	return demand.NewCharge(units.DemandPrice(ds.PricePerKW), method, n, ds.RatchetFraction)
}

func (ps PowerbandSpec) build() (*demand.Powerband, error) {
	if ps.LowerKW > 0 {
		return demand.NewPowerband(
			units.Power(ps.LowerKW), units.Power(ps.UpperKW),
			units.EnergyPrice(ps.UnderPenalty), units.EnergyPrice(ps.OverPenalty))
	}
	return demand.NewUpperPowerband(units.Power(ps.UpperKW), units.EnergyPrice(ps.OverPenalty))
}

// ParseSpec decodes a JSON contract spec.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("contract: bad spec JSON: %w", err)
	}
	return &s, nil
}

// EncodeSpec encodes a spec as indented JSON.
func EncodeSpec(s *Spec) ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
