// Command scsim runs the facility simulator end to end: generate a batch
// workload for a machine, schedule it under a chosen policy (optionally
// with a power cap or price-aware shifting), and bill the resulting
// facility load under a contract spec.
//
// Usage:
//
//	scsim -machine small -span-hours 48
//	scsim -machine top50 -policy fcfs -cap-mw 10
//	scsim -machine small -contract site.json -price-aware
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/contract"
	"repro/internal/grid"
	"repro/internal/hpc"
	"repro/internal/market"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/units"
)

func main() {
	machineName := flag.String("machine", "small", `machine model: "small" (≈1 MW) or "top50" (≈12 MW)`)
	spanHours := flag.Int("span-hours", 48, "workload arrival span in hours")
	utilization := flag.Float64("utilization", 0.9, "target machine utilization")
	policy := flag.String("policy", "backfill", `queue policy: "fcfs" or "backfill"`)
	capMW := flag.Float64("cap-mw", 0, "static IT power cap in MW (0 = none)")
	priceAware := flag.Bool("price-aware", false, "defer checkpointable jobs in expensive hours")
	shutdown := flag.Bool("shutdown-idle", false, "power off idle nodes")
	contractPath := flag.String("contract", "", "optional JSON contract spec to bill the run")
	swfPath := flag.String("swf", "", "replay an SWF trace instead of generating a workload")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	if err := run(*machineName, *spanHours, *utilization, *policy, *capMW, *priceAware, *shutdown, *contractPath, *swfPath, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "scsim:", err)
		os.Exit(1)
	}
}

func run(machineName string, spanHours int, utilization float64, policy string,
	capMW float64, priceAware, shutdown bool, contractPath, swfPath string, seed int64) error {

	var m *hpc.Machine
	switch machineName {
	case "small":
		m = hpc.SmallSiteMachine()
	case "top50":
		m = hpc.Top50Machine()
	default:
		return fmt.Errorf("unknown machine %q (want small or top50)", machineName)
	}

	var jobs []*hpc.Job
	var err error
	if swfPath != "" {
		f, err := os.Open(swfPath)
		if err != nil {
			return err
		}
		defer f.Close()
		jobs, err = hpc.ParseSWF(f, hpc.SWFConfig{CoresPerNode: m.Node.Cores})
		if err != nil {
			return err
		}
	} else {
		wcfg := hpc.DefaultWorkload()
		wcfg.Span = time.Duration(spanHours) * time.Hour
		wcfg.TargetUtilization = utilization
		wcfg.Seed = seed
		jobs, err = hpc.GenerateWorkload(m, wcfg)
		if err != nil {
			return err
		}
	}

	start := time.Date(2016, time.June, 6, 0, 0, 0, 0, time.UTC)
	cfg := sched.Config{
		Start:        start,
		ShutdownIdle: shutdown,
		Horizon:      time.Duration(spanHours) * time.Hour,
	}
	switch policy {
	case "fcfs":
		cfg.Policy = sched.FCFS
	case "backfill":
		cfg.Policy = sched.EASYBackfill
	default:
		return fmt.Errorf("unknown policy %q", policy)
	}
	if capMW > 0 {
		cfg.PowerCap = units.Power(capMW) * units.Megawatt
	}
	if priceAware {
		region := grid.DefaultRegion(start)
		region.Span = time.Duration(spanHours+48) * time.Hour
		regional, err := grid.SystemLoad(region)
		if err != nil {
			return err
		}
		pm := market.DefaultPriceModel(6 * units.Gigawatt)
		feed, err := pm.PriceSeries(regional)
		if err != nil {
			return err
		}
		cfg.PriceFeed = feed
		cfg.PriceThreshold = feed.Mean()
	}

	res, err := sched.Simulate(m, jobs, cfg)
	if err != nil {
		return err
	}

	peak, _, err := res.FacilityLoad.Peak()
	if err != nil {
		return err
	}
	fmt.Printf("Simulated %s: %d jobs over %dh under %s\n\n", m.Name, len(jobs), spanHours, cfg.Policy)
	fmt.Print(report.KV([][2]string{
		{"Jobs started", fmt.Sprintf("%d (unstarted %d)", len(res.Records), res.Unstarted)},
		{"Utilization", fmt.Sprintf("%.1f%%", res.Utilization*100)},
		{"Mean wait", res.MeanWait().Round(time.Minute).String()},
		{"Mean bounded slowdown", fmt.Sprintf("%.2f", res.MeanBoundedSlowdown())},
		{"Facility energy", res.FacilityLoad.Energy().String()},
		{"Facility peak", peak.String()},
		{"Max ramp", res.FacilityLoad.MaxRamp().String()},
	}))

	if contractPath != "" {
		data, err := os.ReadFile(contractPath)
		if err != nil {
			return err
		}
		spec, err := contract.ParseSpec(data)
		if err != nil {
			return err
		}
		c, err := spec.Build(contract.BuildContext{Feed: contract.FlatFeed(start, contract.FlatFeedRate)})
		if err != nil {
			return err
		}
		bill, err := contract.ComputeBill(c, res.FacilityLoad, contract.BillingInput{})
		if err != nil {
			return err
		}
		fmt.Printf("\nBilled under %s: total %s (peak demand %s)\n", c.Name, bill.Total, bill.PeakDemand)
	}
	return nil
}
