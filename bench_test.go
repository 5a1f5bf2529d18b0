package repro

// Benchmark harness: one testing.B target per paper exhibit (Table 1,
// Table 2, Figure 1) and per derived experiment (E1–E10; see DESIGN.md's
// per-experiment index), plus ablation benches for the design choices
// DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark regenerates its exhibit end to end, so -bench doubles
// as the reproduction driver; use cmd/scsurvey or examples/ to see the
// rendered outputs.

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/calendar"
	"repro/internal/contract"
	"repro/internal/demand"
	"repro/internal/dr"
	"repro/internal/exp"
	"repro/internal/forecast"
	"repro/internal/hpc"
	"repro/internal/market"
	"repro/internal/optimize"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/tariff"
	"repro/internal/timeseries"
	"repro/internal/units"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := exp.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if e.Table == nil && e.Figure == "" {
			b.Fatalf("%s produced no output", id)
		}
	}
}

// BenchmarkTable1_SiteRoster regenerates Table 1 (interview sites).
func BenchmarkTable1_SiteRoster(b *testing.B) { benchExperiment(b, "T1") }

// BenchmarkTable2_SurveySummary regenerates Table 2 by classifying the
// ten synthetic site contracts through the typology pipeline.
func BenchmarkTable2_SurveySummary(b *testing.B) { benchExperiment(b, "T2") }

// BenchmarkFigure1_Typology regenerates the Figure 1 typology tree.
func BenchmarkFigure1_Typology(b *testing.B) { benchExperiment(b, "F1") }

// BenchmarkE1_ComponentFrequencies tallies the §3.2.4/§3.3 aggregates
// and the text/matrix discrepancies.
func BenchmarkE1_ComponentFrequencies(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2_DemandChargeShare sweeps peak/average ratio against
// demand-charge share of the bill (Xu & Li's shape, §2).
func BenchmarkE2_DemandChargeShare(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3_PowerbandVsDemandCharge compares continuous-sampling
// powerband penalties with N-peak demand charges (§3.2.2).
func BenchmarkE3_PowerbandVsDemandCharge(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4_CSCSTender runs the CSCS-style procurement simulation (§4).
func BenchmarkE4_CSCSTender(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5_LANLWindowDR evaluates office-load DR on the 15 min–1 h
// timescale (§4).
func BenchmarkE5_LANLWindowDR(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6_IncentiveBreakEven locates the DR incentive break-even
// against the value of curtailed compute (§4/§5).
func BenchmarkE6_IncentiveBreakEven(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7_GoodNeighbor runs the deviation-detection/notification
// study (§3.4).
func BenchmarkE7_GoodNeighbor(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8_GridPeakShaving measures regional peak reduction vs DR
// enrollment (§1, FERC 6.6%).
func BenchmarkE8_GridPeakShaving(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9_RampAnalysis measures batch-facility ramp rates against a
// smoothed delivery (§1).
func BenchmarkE9_RampAnalysis(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10_TariffIncentives prices a shifted vs baseline facility
// under fixed/TOU/dynamic tariffs (§3.2.1).
func BenchmarkE10_TariffIncentives(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11_ContingencyPlan evaluates the three-level contingency
// plan with impact analysis (the paper's §5 future work).
func BenchmarkE11_ContingencyPlan(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12_CapModeAblation compares blocking vs DVFS cap handling.
func BenchmarkE12_CapModeAblation(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13_EnergyBuffering sizes batteries against demand charges.
func BenchmarkE13_EnergyBuffering(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14_RegulationService prices the SC's ramp agility as a
// frequency-regulation product.
func BenchmarkE14_RegulationService(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkE15_ColoSplitIncentive runs the colocation reverse auction
// against the split-incentive baseline.
func BenchmarkE15_ColoSplitIncentive(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkE16_ContractAdvisor advises all ten survey sites.
func BenchmarkE16_ContractAdvisor(b *testing.B) { benchExperiment(b, "E16") }

// BenchmarkE17_GreenSDA settles a week under a GreenSDA flexibility
// contract, passive vs adapting.
func BenchmarkE17_GreenSDA(b *testing.B) { benchExperiment(b, "E17") }

// BenchmarkE18_CostAllocation splits feeder capacity cost under both
// allocation rules.
func BenchmarkE18_CostAllocation(b *testing.B) { benchExperiment(b, "E18") }

// BenchmarkE19_Top500Landscape generates the synthetic Top500 power list.
func BenchmarkE19_Top500Landscape(b *testing.B) { benchExperiment(b, "E19") }

// BenchmarkE20_PowerbandKeeping runs the battery band-keeping study.
func BenchmarkE20_PowerbandKeeping(b *testing.B) { benchExperiment(b, "E20") }

// BenchmarkE21_CBLSettlement settles honest, passive and gaming sites
// against a CBL baseline.
func BenchmarkE21_CBLSettlement(b *testing.B) { benchExperiment(b, "E21") }

// BenchmarkE22_ProgramChoice compares emergency/capacity/regulation
// revenue across dispatch frequencies.
func BenchmarkE22_ProgramChoice(b *testing.B) { benchExperiment(b, "E22") }

// BenchmarkE23_RenewableMatching accounts an 80% renewables clause under
// annual vs time-matched conventions.
func BenchmarkE23_RenewableMatching(b *testing.B) { benchExperiment(b, "E23") }

// ---------------------------------------------------------------------
// Ablation benches for the design choices DESIGN.md calls out.
// ---------------------------------------------------------------------

var benchStart = time.Date(2016, time.March, 1, 0, 0, 0, 0, time.UTC)

func benchLoad(b *testing.B) *timeseries.PowerSeries {
	b.Helper()
	load, err := hpc.SyntheticFacilityLoad(hpc.LoadProfileConfig{
		Start: benchStart, Span: 30 * 24 * time.Hour, Interval: 15 * time.Minute,
		Base: 12 * units.Megawatt, PeakToAverage: 1.8, NoiseSigma: 0.03, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return load
}

// BenchmarkAblation_DemandChargeMethods compares billing cost across the
// three demand-charge derivations on the same monthly profile.
func BenchmarkAblation_DemandChargeMethods(b *testing.B) {
	load := benchLoad(b)
	charges := map[string]*demand.Charge{
		"single-peak": demand.MustNewCharge(13, demand.SinglePeak, 0, 0),
		"3-peak-avg":  demand.MustNewCharge(13, demand.NPeakAverage, 3, 0),
		"ratchet-0.8": demand.MustNewCharge(13, demand.Ratchet, 0, 0.8),
	}
	pctx := billing.PeriodContext{HistoricalPeak: 15 * units.Megawatt}
	for name, c := range charges {
		b.Run(name, func(b *testing.B) {
			ev, err := billing.NewEvaluator(c)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ev.EvaluatePeriod(load, pctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_SchedulerPolicies compares FCFS against EASY
// backfill on the same trace.
func BenchmarkAblation_SchedulerPolicies(b *testing.B) {
	m := hpc.SmallSiteMachine()
	wcfg := hpc.DefaultWorkload()
	wcfg.Span = 24 * time.Hour
	jobs, err := hpc.GenerateWorkload(m, wcfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, policy := range []sched.Policy{sched.FCFS, sched.EASYBackfill} {
		b.Run(policy.String(), func(b *testing.B) {
			cfg := sched.Config{Start: benchStart, Policy: policy, Horizon: 24 * time.Hour}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sched.Simulate(m, jobs, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_ForecastModels compares the forecasting models on a
// two-week facility history.
func BenchmarkAblation_ForecastModels(b *testing.B) {
	history := benchLoad(b)
	perDay := 96
	models := map[string]forecast.Model{
		"seasonal-naive": &forecast.SeasonalNaive{Period: perDay},
		"moving-average": &forecast.MovingAverage{Window: perDay},
		"ses":            &forecast.SES{Alpha: 0.3},
		"holt-winters":   &forecast.HoltWinters{Alpha: 0.3, Beta: 0.05, Gamma: 0.2, Period: perDay},
	}
	for name, m := range models {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := forecast.ForecastPower(m, history, perDay); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_DRStrategies compares the four SC response
// strategies on one dispatched event.
func BenchmarkAblation_DRStrategies(b *testing.B) {
	baseline := benchLoad(b)
	events := []market.Event{{
		Start: benchStart.Add(10 * 24 * time.Hour), Duration: time.Hour,
		RequestedReduction: 2 * units.Megawatt,
	}}
	strategies := map[string]dr.Strategy{
		"cap":   &dr.CapStrategy{Cap: 14 * units.Megawatt, OpCostPerKWh: 0.5},
		"shed":  &dr.ShedStrategy{Fraction: 0.1, OpCostPerKWh: 0.02},
		"shift": &dr.ShiftStrategy{Fraction: 0.2, RecoverySpan: 4 * time.Hour, OpCostPerKWh: 0.05},
		"gen":   &dr.GenStrategy{Capacity: 3 * units.Megawatt, FuelCostPerKWh: 0.25},
	}
	for name, s := range strategies {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Respond(baseline, events); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_StoragePolicies compares peak shaving against price
// arbitrage on the same battery and month.
func BenchmarkAblation_StoragePolicies(b *testing.B) {
	load := benchLoad(b)
	battery := &storage.Battery{
		Capacity: 8 * units.MegawattHour, MaxCharge: 2 * units.Megawatt,
		MaxDischarge: 4 * units.Megawatt, RoundTripEfficiency: 0.9, InitialSoC: 1,
	}
	prices := timeseries.ConstantPrice(benchStart, time.Hour, 31*24, 0.05)
	b.Run("peak-shave", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := storage.PeakShave(battery, load, 18*units.Megawatt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("arbitrage", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := storage.Arbitrage(battery, load, prices, 0.03, 0.10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchYearContract builds the year-billing fixture shared by the
// legacy/engine benchmark pair: a full metered year under a three-part
// contract (fixed + TOU rider + demand charge + powerband), the
// library's hot path.
func benchYearContract(b *testing.B) (*contract.Contract, *timeseries.PowerSeries) {
	b.Helper()
	load, err := hpc.SyntheticFacilityLoad(hpc.LoadProfileConfig{
		Start: benchStart, Span: 365 * 24 * time.Hour, Interval: 15 * time.Minute,
		Base: 12 * units.Megawatt, PeakToAverage: 1.6, NoiseSigma: 0.03, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	band, err := demand.NewUpperPowerband(20*units.Megawatt, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	c := &contract.Contract{
		Name: "bench-year",
		Tariffs: []tariff.Tariff{
			tariff.MustNewFixed(0.06),
			tariff.MustNewTOU(calendar.SeasonalDayNight(8, 20, nil), map[string]units.EnergyPrice{
				"summer-peak": 0.04, "peak": 0.02, "offpeak": 0.005,
			}),
		},
		DemandCharges: []*demand.Charge{demand.SimpleCharge(13)},
		Powerbands:    []*demand.Powerband{band},
	}
	return c, load
}

// BenchmarkBillingYear prices the year through the default path (the
// single-pass engine behind contract.BillMonths).
func BenchmarkBillingYear(b *testing.B) {
	c, load := benchYearContract(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bills, err := contract.BillMonths(c, load, contract.BillingInput{})
		if err != nil {
			b.Fatal(err)
		}
		if len(bills) != 12 {
			b.Fatalf("months = %d", len(bills))
		}
	}
}

// BenchmarkBillYearLegacy is the multi-pass baseline: every component
// re-scans each month's series (tariff costs, top-N peaks, powerband
// excursions are separate traversals), months strictly sequential.
func BenchmarkBillYearLegacy(b *testing.B) {
	c, load := benchYearContract(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bills, err := contract.BillMonthsLegacy(c, load, contract.BillingInput{})
		if err != nil {
			b.Fatal(err)
		}
		if len(bills) != 12 {
			b.Fatalf("months = %d", len(bills))
		}
	}
}

// BenchmarkBillYearEngine is the single-pass engine with the contract
// compiled once outside the loop and months evaluated concurrently —
// the intended steady-state usage for optimizers.
func BenchmarkBillYearEngine(b *testing.B) {
	c, load := benchYearContract(b)
	eng, err := contract.NewEngine(c)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bills, err := eng.BillMonths(load, contract.BillingInput{})
		if err != nil {
			b.Fatal(err)
		}
		if len(bills) != 12 {
			b.Fatalf("months = %d", len(bills))
		}
	}
}

// BenchmarkBillYearCPP is BenchmarkBillYearEngine with the fixed tariff
// wrapped in a CPP tariff declaring twenty summer-afternoon events, so
// the tariff bills along the CPP price walk: the critical rate over
// each event's sample span, the fixed rate between them.
func BenchmarkBillYearCPP(b *testing.B) {
	c, load := benchYearContract(b)
	cpp, err := tariff.NewCPP(c.Tariffs[0], 0.45, 0)
	if err != nil {
		b.Fatal(err)
	}
	day := time.Date(2016, time.July, 4, 14, 0, 0, 0, benchStart.Location())
	for i := 0; i < 20; i++ {
		start := day.AddDate(0, 0, 3*i)
		if err := cpp.Declare(tariff.CriticalWindow{Start: start, End: start.Add(4 * time.Hour)}); err != nil {
			b.Fatal(err)
		}
	}
	c.Tariffs[0] = cpp
	eng, err := contract.NewEngine(c)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bills, err := eng.BillMonths(load, contract.BillingInput{})
		if err != nil {
			b.Fatal(err)
		}
		if len(bills) != 12 {
			b.Fatalf("months = %d", len(bills))
		}
	}
}

// BenchmarkOptimizeYear is the optimizer's acceptance benchmark: a full
// 2000-candidate annealing search over the metered year against the
// bench contract, priced through the incremental re-bill fast path.
// Each op is one complete /v1/optimize-sized search; the acceptance
// bound is one op under five seconds.
func BenchmarkOptimizeYear(b *testing.B) {
	c, load := benchYearContract(b)
	eng, err := contract.NewEngine(c)
	if err != nil {
		b.Fatal(err)
	}
	flex := optimize.Flexibility{DeferrableFraction: 0.10, PartialFraction: 0.20}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := optimize.Optimize(context.Background(), eng, load,
			contract.BillingInput{}, flex, optimize.Options{Seed: 1, Candidates: 2000})
		if err != nil {
			b.Fatal(err)
		}
		if res.Savings <= 0 {
			b.Fatalf("no savings on the bench contract: %+v", res.Savings)
		}
	}
}

// BenchmarkBillYearEngineSequential isolates the single-pass win from
// the parallel-months win by forcing a one-worker pool.
func BenchmarkBillYearEngineSequential(b *testing.B) {
	c, load := benchYearContract(b)
	eng, err := contract.NewEngine(c)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bills, err := eng.BillMonthsWorkers(load, contract.BillingInput{}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(bills) != 12 {
			b.Fatalf("months = %d", len(bills))
		}
	}
}

// BenchmarkBillNamedProfile sends one /v1/bill per op through the
// service handler, against each built-in named load profile in turn:
// the single-bill request path end to end in process, body decode to
// encoded response, with the profile resolved per request as the
// daemon does.
func BenchmarkBillNamedProfile(b *testing.B) {
	h := serve.NewServer(serve.Config{}).Handler()
	names := make([]string, 0, 3)
	for name := range serve.NamedProfiles() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		body := []byte(`{"contract":{"name":"bench-site","tariffs":[{"type":"fixed","rate":0.085}],` +
			`"demand_charges":[{"price_per_kw":12,"method":"n-peak-average","n_peaks":3}],` +
			`"powerbands":[{"upper_kw":18000,"over_penalty":0.4}]},"load":{"profile":"` + name + `"}}`)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/bill", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("%s: %d %s", name, rec.Code, rec.Body)
				}
			}
		})
	}
}

// BenchmarkBillBatchMonthly sends one /v1/bill/batch?monthly=1 per op
// through the service handler: one contract against 16 named-profile
// loads, the three profiles repeated, so each op bills three distinct
// pairs month by month and renders sixteen items. The engine is
// compiled before the timer starts; the encode of the months and the
// envelope is a large share of every op.
func BenchmarkBillBatchMonthly(b *testing.B) {
	h := serve.NewServer(serve.Config{}).Handler()
	names := make([]string, 0, 3)
	for name := range serve.NamedProfiles() {
		names = append(names, name)
	}
	sort.Strings(names)
	var body bytes.Buffer
	body.WriteString(`{"contract":{"name":"bench-batch","tariffs":[{"type":"fixed","rate":0.085}],` +
		`"demand_charges":[{"price_per_kw":12,"method":"n-peak-average","n_peaks":3}],` +
		`"powerbands":[{"upper_kw":18000,"over_penalty":0.4}],"fees":[{"name":"meter fee","amount":450}]},"loads":[`)
	for i := 0; i < 16; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		body.WriteString(`{"profile":"` + names[i%len(names)] + `"}`)
	}
	body.WriteString(`]}`)
	batch := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/bill/batch?monthly=1", bytes.NewReader(body.Bytes())))
		if rec.Code != http.StatusOK {
			b.Fatalf("%d %s", rec.Code, rec.Body)
		}
	}
	batch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch()
	}
}

// BenchmarkBillDynamicFlat sends one year-in-life /v1/bill per op with
// a dynamic tariff and no configured price feed, so the engine prices
// against the flat reference feed; the engine is compiled before the
// timer starts, so every op is a hot-cache hit.
func BenchmarkBillDynamicFlat(b *testing.B) {
	h := serve.NewServer(serve.Config{}).Handler()
	body := []byte(`{"contract":{"name":"bench-dynamic","tariffs":[{"type":"dynamic","multiplier":1.1,"adder":0.01}],` +
		`"demand_charges":[{"price_per_kw":12,"method":"n-peak-average","n_peaks":3}]},"load":{"profile":"year-in-life"}}`)
	bill := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/bill", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%d %s", rec.Code, rec.Body)
		}
	}
	bill()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bill()
	}
}
