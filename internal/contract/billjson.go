package contract

// JSON import/export for bills — the machine-readable counterpart of
// the rendered bill, with currency amounts as floats and typology
// components by name. Encoding and decoding are exact inverses:
// DecodeBill(b.JSON()) reproduces b, and re-encoding the decoded bill
// yields byte-identical JSON (amounts are micro-unit fixed point, so
// the float round trip is lossless).

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/units"
	"repro/internal/wire"
)

// billJSON is the serialized shape DecodeBill reads; AppendJSON writes
// the same shape without it.
type billJSON struct {
	Contract    string         `json:"contract"`
	PeriodStart time.Time      `json:"period_start"`
	PeriodEnd   time.Time      `json:"period_end"`
	EnergyKWh   float64        `json:"energy_kwh"`
	PeakKW      float64        `json:"peak_kw"`
	Lines       []lineItemJSON `json:"lines"`
	Total       float64        `json:"total"`
	DemandShare float64        `json:"demand_share"`
}

type lineItemJSON struct {
	Component   string  `json:"component"`
	Description string  `json:"description"`
	Quantity    string  `json:"quantity"`
	Amount      float64 `json:"amount"`
}

// componentByName is the inverse of Component.String for decoding.
var componentByName = func() map[string]Component {
	m := make(map[string]Component, len(componentNames))
	for c, n := range componentNames {
		m[n] = c
	}
	return m
}()

// DecodeBill parses bill JSON produced by Bill.JSON back into a Bill.
// The serialized demand share is derived data and is discarded (the
// decoded bill recomputes it from its lines).
func DecodeBill(data []byte) (*Bill, error) {
	var in billJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("contract: bad bill JSON: %w", err)
	}
	b := &Bill{
		Contract:    in.Contract,
		PeriodStart: in.PeriodStart,
		PeriodEnd:   in.PeriodEnd,
		Energy:      units.Energy(in.EnergyKWh),
		PeakDemand:  units.Power(in.PeakKW),
		Total:       units.MoneyFromFloat(in.Total),
	}
	for i, l := range in.Lines {
		comp, ok := componentByName[l.Component]
		if !ok {
			return nil, fmt.Errorf("contract: bill line %d: unknown component %q", i, l.Component)
		}
		b.Lines = append(b.Lines, LineItem{
			Component:   comp,
			Description: l.Description,
			Quantity:    l.Quantity,
			Amount:      units.MoneyFromFloat(l.Amount),
		})
	}
	return b, nil
}

// JSON serializes the bill as indented JSON: AppendJSON at the top
// level.
func (b *Bill) JSON() ([]byte, error) {
	return b.AppendJSON(nil, "")
}

// AppendJSON appends the bill to dst as json.MarshalIndent renders
// billJSON with a two-space indent, with every line after the first
// prefixed by indent, so that the bill can sit at any depth of an
// enclosing document: the bytes encoding/json would write for it there.
// Bills without lines render "lines": null, as encoding/json renders
// the nil slice. A float that is NaN or infinite, or a time that RFC
// 3339 cannot carry (a year outside [0, 9999], a zone offset of 24
// hours or more), fails with encoding/json's error and returns dst as
// it was.
func (b *Bill) AppendJSON(dst []byte, indent string) ([]byte, error) {
	start := len(dst)
	var err error
	fail := func(e error) ([]byte, error) { return dst[:start], e }

	dst = append(dst, '{')
	dst = appendMember(dst, indent, 1, `"contract": `)
	dst = wire.AppendString(dst, b.Contract)
	dst = append(dst, ',')
	dst = appendMember(dst, indent, 1, `"period_start": `)
	if dst, err = appendTime(dst, b.PeriodStart); err != nil {
		return fail(err)
	}
	dst = append(dst, ',')
	dst = appendMember(dst, indent, 1, `"period_end": `)
	if dst, err = appendTime(dst, b.PeriodEnd); err != nil {
		return fail(err)
	}
	dst = append(dst, ',')
	dst = appendMember(dst, indent, 1, `"energy_kwh": `)
	if dst, err = wire.AppendFloat(dst, float64(b.Energy)); err != nil {
		return fail(err)
	}
	dst = append(dst, ',')
	dst = appendMember(dst, indent, 1, `"peak_kw": `)
	if dst, err = wire.AppendFloat(dst, float64(b.PeakDemand)); err != nil {
		return fail(err)
	}
	dst = append(dst, ',')
	dst = appendMember(dst, indent, 1, `"lines": `)
	if len(b.Lines) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range b.Lines {
			l := &b.Lines[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendMember(dst, indent, 2, "{")
			dst = appendMember(dst, indent, 3, `"component": `)
			dst = wire.AppendString(dst, l.Component.String())
			dst = append(dst, ',')
			dst = appendMember(dst, indent, 3, `"description": `)
			dst = wire.AppendString(dst, l.Description)
			dst = append(dst, ',')
			dst = appendMember(dst, indent, 3, `"quantity": `)
			dst = wire.AppendString(dst, l.Quantity)
			dst = append(dst, ',')
			dst = appendMember(dst, indent, 3, `"amount": `)
			if dst, err = wire.AppendFloat(dst, l.Amount.Float()); err != nil {
				return fail(err)
			}
			dst = appendMember(dst, indent, 2, "}")
		}
		dst = appendMember(dst, indent, 1, "]")
	}
	dst = append(dst, ',')
	dst = appendMember(dst, indent, 1, `"total": `)
	if dst, err = wire.AppendFloat(dst, b.Total.Float()); err != nil {
		return fail(err)
	}
	dst = append(dst, ',')
	dst = appendMember(dst, indent, 1, `"demand_share": `)
	if dst, err = wire.AppendFloat(dst, b.DemandShare()); err != nil {
		return fail(err)
	}
	return appendMember(dst, indent, 0, "}"), nil
}

// levels holds the two-space indents of the bill's nesting depths.
const levels = "      "

// appendMember starts a new line at depth levels below indent and
// writes s there.
func appendMember(dst []byte, indent string, depth int, s string) []byte {
	dst = append(dst, '\n')
	dst = append(dst, indent...)
	dst = append(dst, levels[:2*depth]...)
	return append(dst, s...)
}

// appendTime appends t as time.Time's MarshalJSON does: RFC 3339 with
// nanoseconds, quoted, refusing what RFC 3339 cannot carry, with the
// error encoding/json wraps that refusal in.
func appendTime(dst []byte, t time.Time) ([]byte, error) {
	const prefix = "json: error calling MarshalJSON for type time.Time: Time.MarshalJSON: "
	if y := t.Year(); y < 0 || y > 9999 {
		return dst, errors.New(prefix + "year outside of range [0,9999]")
	}
	if _, offset := t.Zone(); offset/3600 >= 24 || offset/3600 <= -24 {
		return dst, errors.New(prefix + "timezone hour outside of range [0,23]")
	}
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"'), nil
}
