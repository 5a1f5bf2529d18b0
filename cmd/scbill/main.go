// Command scbill computes an itemized electricity bill for a facility
// load profile under a contract specification.
//
// The contract comes from a JSON spec file (see contract.Spec); the load
// either from a CSV file ("timestamp,kw" rows) or from the synthetic
// facility-load generator.
//
// Usage:
//
//	scbill -contract site.json -load meter.csv
//	scbill -contract site.json -load meter.csv -feed prices.csv
//	scbill -contract site.json -base-mw 12 -peak-ratio 1.8 -days 30
//	scbill -contract site.json -base-mw 12 -monthly   # bill per month
//	scbill -contract site.json -base-mw 12 -trace     # + span timings
//	scbill -batch specs.d/ -load meter.csv            # one load, N contracts
//
// With -batch DIR, every *.json spec in DIR (sorted by name) is billed
// against the single load profile: the load is parsed once, the price
// feed resolved once, and evaluation fans across the contract batch
// pool — the CLI twin of POST /v1/bill/batch. One failing spec reports
// its error and fails the exit code without aborting the other bills.
//
// Dynamic tariffs price against -feed, a "timestamp,price_per_kwh" CSV
// (or .json price file); without it they fall back to a flat reference
// feed at 0.045/kWh (contract.FlatFeedRate).
//
// With -trace the bill is computed through the engine's traced
// evaluation path and a per-span timing table (count, total, mean for
// billing.period, billing.tariff, billing.demand, ...) is printed to
// stderr after the bill.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/hpc"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/timeseries"
	"repro/internal/units"
)

func main() {
	contractPath := flag.String("contract", "", "path to a JSON contract spec (required unless -batch)")
	batchDir := flag.String("batch", "", "directory of *.json contract specs to bill against one load")
	loadPath := flag.String("load", "", "path to a timestamp,kw CSV load profile")
	feedPath := flag.String("feed", "", "price-feed file for dynamic tariffs (timestamp,price_per_kwh CSV or .json; default: flat 0.045/kWh)")
	baseMW := flag.Float64("base-mw", 12, "synthetic load: base facility power in MW")
	peakRatio := flag.Float64("peak-ratio", 1.5, "synthetic load: peak-to-average ratio")
	days := flag.Int("days", 30, "synthetic load: span in days")
	seed := flag.Int64("seed", 1, "synthetic load: random seed")
	monthly := flag.Bool("monthly", false, "bill per calendar month instead of one period")
	jsonOut := flag.Bool("json", false, "emit the bill as JSON instead of a rendered table")
	workers := flag.Int("workers", 0, "worker pool size for -monthly (0 = all CPUs, 1 = sequential)")
	trace := flag.Bool("trace", false, "print per-stage span timings (count/total/mean) to stderr")
	flag.Parse()

	if *batchDir != "" {
		if *contractPath != "" {
			fmt.Fprintln(os.Stderr, "scbill: -contract and -batch are mutually exclusive")
			os.Exit(1)
		}
		if err := runBatch(*batchDir, *loadPath, *feedPath, *baseMW, *peakRatio, *days, *seed, *monthly, *jsonOut, *workers); err != nil {
			fmt.Fprintln(os.Stderr, "scbill:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*contractPath, *loadPath, *feedPath, *baseMW, *peakRatio, *days, *seed, *monthly, *jsonOut, *workers, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "scbill:", err)
		os.Exit(1)
	}
}

// runBatch bills every *.json spec in dir against one load profile via
// the contract batch pool. The load and price feed are resolved once
// and shared by every engine, so N specs cost one parse plus N compiles
// and evaluations.
func runBatch(dir, loadPath, feedPath string, baseMW, peakRatio float64, days int, seed int64, monthly, jsonOut bool, workers int) error {
	specPaths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	sort.Strings(specPaths)
	if len(specPaths) == 0 {
		return fmt.Errorf("batch: no *.json specs in %s", dir)
	}

	load, err := loadProfile(loadPath, baseMW, peakRatio, days, seed)
	if err != nil {
		return err
	}
	prices, err := priceFeed(feedPath, load)
	if err != nil {
		return err
	}

	// Compile every spec up front; a broken spec fails its own slot
	// (Engine nil -> per-item error from BillBatch) without blocking the
	// rest of the directory.
	items := make([]contract.BatchItem, len(specPaths))
	buildErrs := make([]error, len(specPaths))
	for i, path := range specPaths {
		data, err := os.ReadFile(path)
		if err != nil {
			buildErrs[i] = err
			continue
		}
		spec, err := contract.ParseSpec(data)
		if err != nil {
			buildErrs[i] = fmt.Errorf("%s: %w", path, err)
			continue
		}
		c, err := spec.Build(contract.BuildContext{Feed: prices})
		if err != nil {
			buildErrs[i] = fmt.Errorf("%s: %w", path, err)
			continue
		}
		eng, err := contract.NewEngine(c)
		if err != nil {
			buildErrs[i] = fmt.Errorf("%s: %w", path, err)
			continue
		}
		items[i] = contract.BatchItem{Engine: eng, Load: load}
	}

	outcomes := contract.BillBatch(context.Background(), items, contract.BillingInput{},
		contract.BatchOptions{Monthly: monthly, Workers: workers, MonthWorkers: 1})

	failed := 0
	for i, path := range specPaths {
		err := buildErrs[i]
		if err == nil {
			err = outcomes[i].Err
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "scbill: %s: %v\n", path, err)
			continue
		}
		bills := outcomes[i].Months
		if !monthly {
			bills = []*contract.Bill{outcomes[i].Bill}
		}
		if !jsonOut {
			fmt.Printf("== %s\n", path)
		}
		for _, b := range bills {
			if jsonOut {
				if err := printBillJSON(b); err != nil {
					return err
				}
				continue
			}
			printBill(b)
			fmt.Println()
		}
		if monthly && !jsonOut {
			fmt.Printf("Grand total: %s\n", contract.TotalOf(outcomes[i].Months))
		}
	}
	if failed > 0 {
		return fmt.Errorf("batch: %d of %d specs failed", failed, len(specPaths))
	}
	return nil
}

// priceFeed resolves the dynamic-tariff price series: the -feed file
// when given (strictly parsed — NaN/Inf prices and broken timestamp
// grids are rejected with line numbers), else the flat reference feed
// (real deployments would pass market data).
func priceFeed(path string, load *timeseries.PowerSeries) (*timeseries.PriceSeries, error) {
	if path == "" {
		return contract.FlatFeed(load.Start(), contract.FlatFeedRate), nil
	}
	return (&feed.File{Path: path}).Fetch(context.Background(), load.Start(), load.End())
}

func run(contractPath, loadPath, feedPath string, baseMW, peakRatio float64, days int, seed int64, monthly, jsonOut bool, workers int, trace bool) error {
	if contractPath == "" {
		return fmt.Errorf("-contract is required")
	}
	data, err := os.ReadFile(contractPath)
	if err != nil {
		return err
	}
	spec, err := contract.ParseSpec(data)
	if err != nil {
		return err
	}

	load, err := loadProfile(loadPath, baseMW, peakRatio, days, seed)
	if err != nil {
		return err
	}
	prices, err := priceFeed(feedPath, load)
	if err != nil {
		return err
	}
	c, err := spec.Build(contract.BuildContext{Feed: prices})
	if err != nil {
		return err
	}

	// -trace attaches a span registry to the evaluation context; the
	// engine's traced path attributes time per component family.
	ctx := context.Background()
	var spans *obs.Registry
	if trace {
		spans = obs.NewRegistry()
		ctx = obs.WithSpans(ctx, spans)
	}

	if monthly {
		eng, err := contract.NewEngine(c)
		if err != nil {
			return err
		}
		bills, err := eng.BillMonthsCtx(ctx, load, contract.BillingInput{}, workers)
		if err != nil {
			return err
		}
		for _, b := range bills {
			if jsonOut {
				if err := printBillJSON(b); err != nil {
					return err
				}
				continue
			}
			printBill(b)
			fmt.Println()
		}
		if !jsonOut {
			fmt.Printf("Grand total: %s\n", contract.TotalOf(bills))
		}
		printSpans(spans)
		return nil
	}

	if trace {
		// Traced single-period billing goes through the engine so the
		// context (and its registry) reaches the evaluation loop.
		eng, err := contract.NewEngine(c)
		if err != nil {
			return err
		}
		b, err := eng.BillCtx(ctx, load, contract.BillingInput{})
		if err != nil {
			return err
		}
		if jsonOut {
			if err := printBillJSON(b); err != nil {
				return err
			}
		} else {
			printBill(b)
		}
		printSpans(spans)
		return nil
	}

	analysis, err := core.Analyze(c, load, contract.BillingInput{})
	if err != nil {
		return err
	}
	if jsonOut {
		return printBillJSON(analysis.Bill)
	}
	printBill(analysis.Bill)
	fmt.Println()
	fmt.Print(report.KV([][2]string{
		{"Typology profile", analysis.Profile.String()},
		{"Load factor", fmt.Sprintf("%.2f", analysis.LoadFactor)},
		{"Demand share of bill", fmt.Sprintf("%.1f%%", analysis.DemandShare*100)},
		{"Effective all-in rate", analysis.EffectiveRate.String()},
	}))
	for _, inc := range analysis.Incentives {
		fmt.Println("incentive:", inc)
	}
	return nil
}

func loadProfile(path string, baseMW, peakRatio float64, days int, seed int64) (*timeseries.PowerSeries, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		s, err := timeseries.ReadPowerCSV(f)
		if err != nil {
			return nil, fmt.Errorf("load profile %s: %w", path, err)
		}
		return s, nil
	}
	return hpc.SyntheticFacilityLoad(hpc.LoadProfileConfig{
		Start:         time.Date(2016, time.March, 1, 0, 0, 0, 0, time.UTC),
		Span:          time.Duration(days) * 24 * time.Hour,
		Interval:      15 * time.Minute,
		Base:          units.Power(baseMW) * units.Megawatt,
		PeakToAverage: peakRatio,
		NoiseSigma:    0.02,
		Seed:          seed,
	})
}

// printSpans renders the -trace timing table to stderr: one line per
// span with its observation count, total time, and mean.
func printSpans(spans *obs.Registry) {
	if spans == nil {
		return
	}
	snaps := spans.Snapshot()
	if len(snaps) == 0 {
		return
	}
	fmt.Fprintln(os.Stderr, "span                        count      total       mean")
	for _, s := range snaps {
		fmt.Fprintf(os.Stderr, "%-24s %8d %9.3fms %9.4fms\n",
			s.Name, s.Count, s.Sum*1e3, s.Mean()*1e3)
	}
}

func printBillJSON(b *contract.Bill) error {
	data, err := b.JSON()
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func printBill(b *contract.Bill) {
	tbl := report.NewTable(
		fmt.Sprintf("Bill for %s  [%s – %s]", b.Contract,
			b.PeriodStart.Format("2006-01-02"), b.PeriodEnd.Format("2006-01-02")),
		"Line item", "Quantity", "Amount")
	for _, l := range b.Lines {
		tbl.AddRow(l.Description, l.Quantity, l.Amount.String())
	}
	tbl.AddRow("TOTAL", b.Energy.String(), b.Total.String())
	fmt.Print(tbl.Render())
}
