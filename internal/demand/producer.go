package demand

// Billing-engine glue: demand charges and powerbands implement
// billing.LineItemProducer directly, so the kW branch rides the
// engine's single pass instead of re-scanning the load per component.
// Their kernels live in kernel.go.

import (
	"repro/internal/billing"
	"repro/internal/units"
)

// Validate checks the charge's parameters (the NewCharge invariants).
func (c *Charge) Validate() error {
	_, err := NewCharge(c.Price, c.Method, c.NPeaks, c.RatchetFraction)
	return err
}

// SpanFamily attributes scan cost to the demand-charge family (the kW
// branch of the typology) in span traces.
func (c *Charge) SpanFamily() string { return "demand" }

var _ billing.LineItemProducer = (*Charge)(nil)

type peakEntry struct {
	power units.Power
	index int
}

// Validate checks the powerband's limits and penalties (the
// NewPowerband / NewUpperPowerband invariants).
func (b *Powerband) Validate() error {
	var err error
	if b.HasLower {
		_, err = NewPowerband(b.Lower, b.Upper, b.UnderPenalty, b.OverPenalty)
	} else {
		_, err = NewUpperPowerband(b.Upper, b.OverPenalty)
	}
	return err
}

// SpanFamily attributes scan cost to the powerband family in span
// traces.
func (b *Powerband) SpanFamily() string { return "powerband" }

var _ billing.LineItemProducer = (*Powerband)(nil)
