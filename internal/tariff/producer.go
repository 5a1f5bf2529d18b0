package tariff

// Billing-engine glue: every Tariff becomes a billing.LineItemProducer
// whose kernel (kernel.go) reproduces the legacy oracle's arithmetic
// (contract.ComputeBillLegacy) exactly — same floating-point operations
// in the same order — while sharing the engine's single pass over the
// load series instead of scanning it per component.

import (
	"errors"

	"repro/internal/billing"
)

// Producer adapts a tariff into a billing.LineItemProducer. A fixed
// tariff prices total energy once; every other tariff prices and rounds
// per sample, as costByPriceAt does, along its own price walk
// (kernel.go): TOU, dynamic and CPP tariffs walk segments of equal
// price. A rider on top of a base rate is a second tariff entry of the
// contract, with a producer of its own.
func Producer(t Tariff) billing.LineItemProducer {
	return producer{t: t}
}

type producer struct{ t Tariff }

func (p producer) Validate() error {
	if p.t == nil {
		return errors.New("tariff: nil tariff component")
	}
	return nil
}

func (p producer) Describe() string { return p.t.Describe() }

// SpanFamily attributes scan cost to the tariff family (the kWh
// branch of the typology) in span traces.
func (p producer) SpanFamily() string { return "tariff" }

func classFor(k Kind) billing.Class {
	switch k {
	case TimeOfUse:
		return billing.ClassTOUTariff
	case Dynamic:
		return billing.ClassDynamicTariff
	default:
		return billing.ClassFixedTariff
	}
}
