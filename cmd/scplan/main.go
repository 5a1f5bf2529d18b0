// Command scplan evaluates a contingency plan (JSON spec) for a site:
// it builds a month of facility load and grid signals, runs the plan,
// and prints the impact analysis — per-level activations, bill delta,
// operational cost and emergency compliance.
//
// Usage:
//
//	scplan -plan plan.json -contract site.json
//	scplan -plan plan.json -contract site.json -base-mw 15 -stress 3
//	scplan -example > plan.json      # write a starter plan spec
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/contingency"
	"repro/internal/contract"
	"repro/internal/grid"
	"repro/internal/hpc"
	"repro/internal/market"
	"repro/internal/report"
	"repro/internal/units"
)

func main() {
	planPath := flag.String("plan", "", "path to a JSON contingency-plan spec (required unless -example)")
	contractPath := flag.String("contract", "", "path to a JSON contract spec (required unless -example)")
	baseMW := flag.Float64("base-mw", 12, "facility base load in MW")
	stressCount := flag.Int("stress", 2, "number of grid-stress events in the month")
	emergencies := flag.Int("emergencies", 1, "number of declared grid emergencies")
	seed := flag.Int64("seed", 11, "generation seed")
	example := flag.Bool("example", false, "print a starter plan spec and exit")
	flag.Parse()

	if *example {
		printExample()
		return
	}
	if err := run(*planPath, *contractPath, *baseMW, *stressCount, *emergencies, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "scplan:", err)
		os.Exit(1)
	}
}

func printExample() {
	spec := &contingency.PlanSpec{
		Name: "starter-plan",
		Levels: []contingency.LevelSpec{
			{Name: "price-watch", Trigger: "price-above", PriceThreshold: 0.15,
				Strategy: contingency.StrategySpec{Type: "shed", Fraction: 0.05, OpCost: 0.01}},
			{Name: "stress-shed", Trigger: "grid-stress",
				Strategy: contingency.StrategySpec{Type: "shed", Fraction: 0.10, OpCost: 0.02}},
			{Name: "emergency-cap", Trigger: "emergency-declared",
				Strategy: contingency.StrategySpec{Type: "cap", CapKW: 9000, OpCost: 0.20}},
		},
	}
	data, err := contingency.EncodePlanSpec(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scplan:", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}

func run(planPath, contractPath string, baseMW float64, stressCount, emergencies int, seed int64) error {
	if planPath == "" || contractPath == "" {
		return fmt.Errorf("-plan and -contract are required (or use -example)")
	}
	planData, err := os.ReadFile(planPath)
	if err != nil {
		return err
	}
	planSpec, err := contingency.ParsePlanSpec(planData)
	if err != nil {
		return err
	}
	plan, err := planSpec.Build()
	if err != nil {
		return err
	}
	contractData, err := os.ReadFile(contractPath)
	if err != nil {
		return err
	}
	cSpec, err := contract.ParseSpec(contractData)
	if err != nil {
		return err
	}
	start := time.Date(2016, time.September, 1, 0, 0, 0, 0, time.UTC)
	c, err := cSpec.Build(contract.BuildContext{Feed: contract.FlatFeed(start, contract.FlatFeedRate)})
	if err != nil {
		return err
	}

	baseline, err := hpc.SyntheticFacilityLoad(hpc.LoadProfileConfig{
		Start: start, Span: 30 * 24 * time.Hour, Interval: 15 * time.Minute,
		Base: units.Power(baseMW) * units.Megawatt, PeakToAverage: 1.3,
		NoiseSigma: 0.02, Seed: seed,
	})
	if err != nil {
		return err
	}

	// Grid signals: regional prices plus evenly spaced stress events
	// and emergencies in business hours.
	region := grid.DefaultRegion(start)
	regional, err := grid.SystemLoad(region)
	if err != nil {
		return err
	}
	pm := market.DefaultPriceModel(5500 * units.Megawatt)
	prices, err := pm.PriceSeries(regional)
	if err != nil {
		return err
	}
	sig := contingency.Signals{Prices: prices}
	for i := 0; i < stressCount; i++ {
		day := 3 + i*(24/maxInt(stressCount, 1))
		sig.Stress = append(sig.Stress, grid.StressEvent{
			Start: start.Add(time.Duration(day)*24*time.Hour + 17*time.Hour), Duration: 2 * time.Hour,
		})
	}
	for i := 0; i < emergencies; i++ {
		day := 10 + i*7
		sig.Emergencies = append(sig.Emergencies, contract.EmergencyEvent{
			Start: start.Add(time.Duration(day)*24*time.Hour + 15*time.Hour), Duration: 2 * time.Hour,
		})
	}

	im, err := contingency.Evaluate(plan, c, baseline, sig)
	if err != nil {
		return err
	}

	fmt.Printf("Plan %q against contract %q (%.0f MW site, %d stress events, %d emergencies)\n\n",
		plan.Name, c.Name, baseMW, stressCount, emergencies)
	tbl := report.NewTable("Per-level impact", "Level", "Activations", "Active for", "Curtailed", "Op cost")
	for _, l := range im.Levels {
		tbl.AddRow(l.Level, fmt.Sprintf("%d", l.Activations), l.ActiveFor.String(),
			l.Curtailed.String(), l.OpCost.String())
	}
	fmt.Print(tbl.Render())
	fmt.Println()
	fmt.Print(report.KV([][2]string{
		{"Baseline bill", im.BaselineBill.Total.String()},
		{"Planned bill", im.PlannedBill.Total.String()},
		{"Bill savings", im.BillSavings().String()},
		{"Operational cost", im.TotalOpCost.String()},
		{"NET BENEFIT", im.NetBenefit.String()},
		{"Emergency compliant", fmt.Sprintf("%v", im.EmergencyCompliant)},
	}))
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
