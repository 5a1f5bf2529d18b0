// Command scopt optimizes a facility load profile against a contract
// under a flexibility envelope: how much of the bill is recoverable by
// deferring deferrable energy and shedding the partial-execution slice,
// without violating ramp or immovable-load constraints.
//
// Usage:
//
//	scopt -survey                           # ten-site acceptance sweep
//	scopt -survey -check -out ACCEPT.md     # sweep, enforce savings, write table
//	scopt -site 3 -defer 0.10 -partial 0.20 # one survey site's contract
//	scopt -contract site.json -load meter.csv
//	scopt -site 1 -json                     # machine-readable result
//	scopt -site 1 -series-out optimized.csv # export the reshaped schedule
//
// With -survey the year-in-life load (12 MW facility, 15-minute
// metering, calendar year 2016) is optimized against every survey
// site's synthetic contract and the outcome table is rendered as
// markdown; -check additionally fails the exit code unless every
// demand-charge/powerband contract came out strictly cheaper. The run
// is a deterministic function of the seed, so the committed
// ACCEPTANCE_optimize.md reproduces bit for bit (make optimize-accept).
//
// Single-contract mode takes either -site N (survey site's synthetic
// contract) or -contract spec.json, optimizes the load against it, and
// prints the baseline/optimized summary, per-component savings, binding
// constraints, and search statistics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/contract"
	"repro/internal/hpc"
	"repro/internal/optimize"
	"repro/internal/report"
	"repro/internal/survey"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// cliConfig carries every flag so run stays testable without a real
// command line.
type cliConfig struct {
	surveyMode bool
	check      bool
	outPath    string
	site       int
	contract   string
	loadPath   string
	baseMW     float64
	peakRatio  float64
	days       int
	loadSeed   int64
	flex       optimize.Flexibility
	opts       optimize.Options
	jsonOut    bool
	seriesOut  string
}

func main() {
	var cfg cliConfig
	flag.BoolVar(&cfg.surveyMode, "survey", false, "run the ten-site acceptance sweep and render the markdown table")
	flag.BoolVar(&cfg.check, "check", false, "with -survey: fail unless every demand-side contract is strictly cheaper")
	flag.StringVar(&cfg.outPath, "out", "", "write the table or result to FILE instead of stdout")
	flag.IntVar(&cfg.site, "site", 0, "optimize against survey site N's synthetic contract")
	flag.StringVar(&cfg.contract, "contract", "", "path to a JSON contract spec")
	flag.StringVar(&cfg.loadPath, "load", "", "path to a timestamp,kw CSV load profile")
	flag.Float64Var(&cfg.baseMW, "base-mw", 12, "synthetic load: base facility power in MW")
	flag.Float64Var(&cfg.peakRatio, "peak-ratio", 1.6, "synthetic load: peak-to-average ratio")
	flag.IntVar(&cfg.days, "days", 90, "synthetic load: span in days")
	flag.Int64Var(&cfg.loadSeed, "load-seed", 7, "synthetic load: random seed")
	flag.Float64Var(&cfg.flex.DeferrableFraction, "defer", 0.10, "fraction of baseline energy that may be moved in time")
	flag.Float64Var(&cfg.flex.PartialFraction, "partial", 0.20, "fraction of baseline energy that may be dropped (partial execution)")
	flag.Float64Var(&cfg.flex.MaxRampKW, "ramp", 0, "max schedule change between steps in kW (0 = unconstrained)")
	flag.Float64Var(&cfg.flex.FloorKW, "floor", 0, "immovable-load floor in kW")
	flag.Int64Var(&cfg.opts.Seed, "seed", 1, "search RNG seed (runs are deterministic per seed)")
	flag.IntVar(&cfg.opts.Candidates, "candidates", optimize.DefaultCandidates, "number of search candidates")
	flag.BoolVar(&cfg.jsonOut, "json", false, "emit the result as JSON instead of a rendered summary")
	flag.StringVar(&cfg.seriesOut, "series-out", "", "write the optimized schedule as a timestamp,kw CSV to FILE")
	flag.Parse()

	if err := run(context.Background(), cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scopt:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg cliConfig, stdout io.Writer) error {
	if cfg.surveyMode {
		return runSurvey(ctx, cfg, stdout)
	}
	return runSingle(ctx, cfg, stdout)
}

// runSurvey is the acceptance sweep: the committed table is exactly this
// output, so nothing here may depend on the clock or the machine.
func runSurvey(ctx context.Context, cfg cliConfig, stdout io.Writer) error {
	if cfg.site != 0 || cfg.contract != "" || cfg.loadPath != "" {
		return fmt.Errorf("-survey uses the built-in year-in-life load; -site/-contract/-load do not apply")
	}
	outcomes, err := optimize.SurveySweep(ctx, cfg.flex, cfg.opts)
	if err != nil {
		return err
	}
	var out string
	if cfg.jsonOut {
		data, err := json.MarshalIndent(outcomes, "", "  ")
		if err != nil {
			return err
		}
		out = string(data) + "\n"
	} else {
		out = optimize.RenderSurveyTable(outcomes, cfg.flex, cfg.opts)
	}
	if err := emit(cfg.outPath, out, stdout); err != nil {
		return err
	}
	if cfg.check {
		return optimize.CheckSweep(outcomes)
	}
	return nil
}

func runSingle(ctx context.Context, cfg cliConfig, stdout io.Writer) error {
	if (cfg.site != 0) == (cfg.contract != "") {
		return fmt.Errorf("exactly one of -site or -contract is required (or -survey)")
	}
	load, err := loadProfile(cfg)
	if err != nil {
		return err
	}
	eng, err := buildEngine(cfg, load)
	if err != nil {
		return err
	}
	res, err := optimize.Optimize(ctx, eng, load, contract.BillingInput{}, cfg.flex, cfg.opts)
	if err != nil {
		return err
	}

	if cfg.seriesOut != "" {
		f, err := os.Create(cfg.seriesOut)
		if err != nil {
			return err
		}
		werr := timeseries.WritePowerCSV(f, res.Series)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("series-out %s: %w", cfg.seriesOut, werr)
		}
	}

	var out string
	if cfg.jsonOut {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		out = string(data) + "\n"
	} else {
		out = renderResult(res)
	}
	return emit(cfg.outPath, out, stdout)
}

// buildEngine compiles the target contract: a survey site's synthetic
// one, or a JSON spec built against a flat reference feed over the load
// span (the same fallback scbill uses without -feed).
func buildEngine(cfg cliConfig, load *timeseries.PowerSeries) (*contract.Engine, error) {
	var c *contract.Contract
	if cfg.site != 0 {
		var site *survey.SiteRecord
		for _, rec := range survey.Records() {
			if rec.ID == cfg.site {
				r := rec
				site = &r
				break
			}
		}
		if site == nil {
			return nil, fmt.Errorf("no survey site %d (sites are 1-10)", cfg.site)
		}
		var err error
		c, err = survey.BuildContract(*site, survey.DefaultBuildContext(load.Start()))
		if err != nil {
			return nil, err
		}
	} else {
		data, err := os.ReadFile(cfg.contract)
		if err != nil {
			return nil, err
		}
		spec, err := contract.ParseSpec(data)
		if err != nil {
			return nil, err
		}
		c, err = spec.Build(contract.BuildContext{Feed: contract.FlatFeed(load.Start(), contract.FlatFeedRate)})
		if err != nil {
			return nil, err
		}
	}
	return contract.NewEngine(c)
}

func loadProfile(cfg cliConfig) (*timeseries.PowerSeries, error) {
	if cfg.loadPath != "" {
		f, err := os.Open(cfg.loadPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		s, err := timeseries.ReadPowerCSV(f)
		if err != nil {
			return nil, fmt.Errorf("load profile %s: %w", cfg.loadPath, err)
		}
		return s, nil
	}
	return hpc.SyntheticFacilityLoad(hpc.LoadProfileConfig{
		Start:         time.Date(2016, time.January, 1, 0, 0, 0, 0, time.UTC),
		Span:          time.Duration(cfg.days) * 24 * time.Hour,
		Interval:      15 * time.Minute,
		Base:          units.Power(cfg.baseMW) * units.Megawatt,
		PeakToAverage: cfg.peakRatio,
		NoiseSigma:    0.02,
		Seed:          cfg.loadSeed,
	})
}

// renderResult prints the human-readable optimization summary: headline
// savings, schedule shape before/after, component deltas, and how the
// search spent its candidates.
func renderResult(res *optimize.Result) string {
	out := report.KV([][2]string{
		{"Contract", res.Contract},
		{"Baseline bill", fmt.Sprintf("%.2f", res.BaselineTotal)},
		{"Optimized bill", fmt.Sprintf("%.2f", res.OptimizedTotal)},
		{"Savings", fmt.Sprintf("%.2f (%.2f%%)", res.Savings, res.SavingsFraction*100)},
		{"Peak kW", fmt.Sprintf("%.0f -> %.0f", res.Baseline.PeakKW, res.Optimized.PeakKW)},
		{"Load factor", fmt.Sprintf("%.3f -> %.3f", res.Baseline.LoadFactor, res.Optimized.LoadFactor)},
		{"Moved energy", fmt.Sprintf("%.1f of %.1f kWh deferrable", res.MovedKWh, res.DeferBudgetKWh)},
		{"Dropped energy", fmt.Sprintf("%.1f of %.1f kWh partial", res.DroppedKWh, res.PartialBudgetKWh)},
		{"Binding constraints", joinOrDash(res.Binding)},
		{"Search", fmt.Sprintf("seed %d, %d candidates, %d evaluated, %d improved, converged %v",
			res.Seed, res.Stats.Candidates, res.Stats.Evaluated, res.Stats.Improved, res.Stats.Converged)},
		{"Months re-billed", fmt.Sprintf("%d incremental", res.Stats.MonthsReevaluated)},
	})

	tbl := report.NewTable("Per-component savings", "Component", "Baseline", "Optimized", "Saving")
	for _, c := range res.Components {
		tbl.AddRow(c.Component, fmt.Sprintf("%.2f", c.Baseline),
			fmt.Sprintf("%.2f", c.Optimized), fmt.Sprintf("%.2f", c.Saving))
	}
	return out + "\n" + tbl.Render()
}

func joinOrDash(parts []string) string {
	if len(parts) == 0 {
		return "none"
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out += ", " + p
	}
	return out
}

// emit writes out to path, or to stdout when path is empty.
func emit(path, out string, stdout io.Writer) error {
	if path == "" {
		_, err := io.WriteString(stdout, out)
		return err
	}
	return os.WriteFile(path, []byte(out), 0o644)
}
