package billing

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/timeseries"
	"repro/internal/units"
)

var t0 = time.Date(2016, time.March, 1, 0, 0, 0, 0, time.UTC)

func series(kw ...float64) *timeseries.PowerSeries {
	samples := make([]units.Power, len(kw))
	for i, v := range kw {
		samples[i] = units.Power(v)
	}
	return timeseries.MustNewPower(t0, time.Hour, samples)
}

// probe is a test producer whose scanner records what the evaluator
// hands it: the period context and clock at Begin, every chunk's
// (base, len), and every sample with its period-relative index. onScan,
// when set, runs after each Scan call.
type probe struct {
	name    string
	family  string
	invalid bool
	onScan  func()
	// begun counts Begin calls across goroutines; last is the most
	// recent period's record (only meaningful for single-period runs,
	// but month workers store it concurrently).
	begun atomic.Int64
	last  atomic.Pointer[probeRecord]
}

type probeRecord struct {
	hist     units.Power
	start    time.Time
	interval time.Duration
	n        int
	chunks   [][2]int
	indexes  []int
	samples  []units.Power
}

func (p *probe) Validate() error {
	if p.invalid {
		return errors.New("probe: invalid")
	}
	return nil
}

func (p *probe) Describe() string      { return p.name }
func (p *probe) SpanFamily() string    { return p.family }
func (p *probe) CompileKernel() Kernel { return (*probeKernel)(p) }

type probeKernel probe

func (k *probeKernel) NewScanner() Scanner { return &probeScanner{p: (*probe)(k)} }

type probeScanner struct {
	p   *probe
	rec *probeRecord
}

func (s *probeScanner) Begin(pctx *PeriodContext, start time.Time, interval time.Duration, n int) {
	s.p.begun.Add(1)
	s.rec = &probeRecord{hist: pctx.HistoricalPeak, start: start, interval: interval, n: n}
	s.p.last.Store(s.rec)
}

func (s *probeScanner) Scan(samples []units.Power, base int) {
	s.rec.chunks = append(s.rec.chunks, [2]int{base, len(samples)})
	for i, p := range samples {
		s.rec.indexes = append(s.rec.indexes, base+i)
		s.rec.samples = append(s.rec.samples, p)
	}
	if s.p.onScan != nil {
		s.p.onScan()
	}
}

func (s *probeScanner) AppendLines(dst []LineItem) []LineItem {
	return append(dst, LineItem{
		Class:       ClassFlatFee,
		Description: s.p.name,
		Quantity:    "flat",
		Amount:      units.Money(len(s.rec.indexes)),
	})
}

func TestClassNames(t *testing.T) {
	for c := ClassFixedTariff; c <= ClassFlatFee; c++ {
		if strings.HasPrefix(c.String(), "Class(") {
			t.Errorf("class %d should have a name", int(c))
		}
	}
	if Class(99).String() != "Class(99)" {
		t.Error("unknown class formatting")
	}
}

func TestWindowCovers(t *testing.T) {
	w := Window{Start: t0, End: t0.Add(time.Hour)}
	if !w.Covers(t0) || w.Covers(t0.Add(time.Hour)) || w.Covers(t0.Add(-time.Second)) {
		t.Error("window coverage is half-open [start, end)")
	}
}

func TestNewEvaluatorValidates(t *testing.T) {
	if _, err := NewEvaluator(&probe{name: "ok"}, nil); err == nil {
		t.Error("nil producer should fail")
	}
	if _, err := NewEvaluator(&probe{name: "bad", invalid: true}); err == nil {
		t.Error("invalid producer should fail")
	}
	e, err := NewEvaluator(&probe{name: "a"}, &probe{name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.EvaluatePeriod(series(1000), PeriodContext{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lines) != 2 || res.Lines[0].Description != "a" || res.Lines[1].Description != "b" {
		t.Errorf("lines = %+v", res.Lines)
	}
}

func TestEvaluatePeriodEmptyLoad(t *testing.T) {
	e, _ := NewEvaluator(&probe{name: "p"})
	if _, err := e.EvaluatePeriod(nil, PeriodContext{}); !errors.Is(err, ErrEmptyLoad) {
		t.Errorf("nil load err = %v", err)
	}
	empty := timeseries.MustNewPower(t0, time.Hour, nil)
	if _, err := e.EvaluatePeriod(empty, PeriodContext{}); !errors.Is(err, ErrEmptyLoad) {
		t.Errorf("empty load err = %v", err)
	}
}

func TestEvaluatePeriodSamplesAndAggregates(t *testing.T) {
	p := &probe{name: "p"}
	e, _ := NewEvaluator(p)
	load := series(1000, 3000, 2000)
	res, err := e.EvaluatePeriod(load, PeriodContext{HistoricalPeak: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Peak != 3000 || !res.PeakTime.Equal(t0.Add(time.Hour)) {
		t.Errorf("peak = %v at %v", res.Peak, res.PeakTime)
	}
	if float64(res.Energy) != 6000 {
		t.Errorf("energy = %v", res.Energy)
	}
	if !res.PeriodStart.Equal(load.Start()) || !res.PeriodEnd.Equal(load.End()) {
		t.Error("period bounds")
	}
	// The probe observed every sample once, in order, with shared energy.
	if len(res.Lines) != 1 || res.Lines[0].Amount != units.Money(3) {
		t.Fatalf("lines = %+v", res.Lines)
	}
	if res.Total != units.Money(3) {
		t.Errorf("total = %v", res.Total)
	}
	if p.begun.Load() != 1 {
		t.Errorf("Begin calls = %d", p.begun.Load())
	}
	// Scanner inputs: every sample once, in index order, and the
	// period's clock and context.
	last := p.last.Load()
	if len(last.indexes) != 3 {
		t.Fatalf("scanned %d samples", len(last.indexes))
	}
	for i, idx := range last.indexes {
		if idx != i || last.samples[i] != load.At(i) {
			t.Errorf("sample %d: index %d power %v", i, idx, last.samples[i])
		}
	}
	if last.hist != 500 || !last.start.Equal(t0) || last.interval != time.Hour || last.n != 3 {
		t.Errorf("context plumbed = %v/%v/%v/%d", last.hist, last.start, last.interval, last.n)
	}
}

func TestFlatFeeLine(t *testing.T) {
	load := series(1000, 2000)
	fe, _ := NewEvaluator(FlatFee{Name: "metering", Amount: units.Money(77)})
	fres, err := fe.EvaluatePeriod(load, PeriodContext{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fres.Lines) != 1 {
		t.Fatalf("lines = %+v", fres.Lines)
	}
	l := fres.Lines[0]
	if l.Class != ClassFlatFee || l.Description != "metering" || l.Quantity != "flat" || l.Amount != 77 {
		t.Errorf("fee line = %+v", l)
	}
	if fres.Total != 77 {
		t.Errorf("total = %v", fres.Total)
	}
}

func TestEvaluateMonthsEmptyAndSingle(t *testing.T) {
	e, _ := NewEvaluator(&probe{name: "p"})
	if _, err := e.EvaluateMonths(nil, PeriodContext{}, MonthsOptions{}); !errors.Is(err, ErrEmptyLoad) {
		t.Errorf("nil load err = %v", err)
	}
	res, err := e.EvaluateMonths(series(1000, 2000), PeriodContext{}, MonthsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Peak != 2000 {
		t.Fatalf("results = %+v", res)
	}
}

// ratchetProbe bills the historical peak it was given, exposing exactly
// what the prescan threaded into each month.
type ratchetProbe struct{}

func (ratchetProbe) Validate() error       { return nil }
func (ratchetProbe) Describe() string      { return "ratchet-probe" }
func (ratchetProbe) SpanFamily() string    { return "demand" }
func (ratchetProbe) CompileKernel() Kernel { return ratchetProbe{} }
func (ratchetProbe) NewScanner() Scanner   { return &ratchetProbeScanner{} }

type ratchetProbeScanner struct{ hist units.Power }

func (s *ratchetProbeScanner) Begin(pctx *PeriodContext, _ time.Time, _ time.Duration, _ int) {
	s.hist = pctx.HistoricalPeak
}

func (s *ratchetProbeScanner) Scan([]units.Power, int) {}

func (s *ratchetProbeScanner) AppendLines(dst []LineItem) []LineItem {
	return append(dst, LineItem{Class: ClassDemandCharge, Description: "hist", Amount: units.Money(s.hist)})
}

func TestEvaluateMonthsThreadsHistoricalPeak(t *testing.T) {
	// Three months of hourly data: peaks 5 MW (Mar), 9 MW (Apr), 6 MW (May).
	n := (31 + 30 + 31) * 24
	samples := make([]units.Power, n)
	for i := range samples {
		samples[i] = 1000
	}
	samples[10] = 5000            // March
	samples[31*24+10] = 9000      // April
	samples[(31+30)*24+10] = 6000 // May
	load := timeseries.MustNewPower(t0, time.Hour, samples)

	e, _ := NewEvaluator(ratchetProbe{})
	for _, workers := range []int{0, 1, 2, 7} {
		res, err := e.EvaluateMonths(load, PeriodContext{HistoricalPeak: 4000}, MonthsOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 3 {
			t.Fatalf("months = %d", len(res))
		}
		// March enters with the caller's 4 MW, April with March's 5 MW,
		// May with April's 9 MW.
		want := []units.Money{4000, 5000, 9000}
		for i, r := range res {
			if r.Lines[0].Amount != want[i] {
				t.Errorf("workers=%d month %d hist = %v, want %v",
					workers, i, r.Lines[0].Amount, want[i])
			}
		}
	}
}

func TestFlatFeeValidateAndDescribe(t *testing.T) {
	f := FlatFee{Name: "levy", Amount: -5}
	if f.Validate() != nil {
		t.Error("negative fee models a credit; must validate")
	}
	if f.Describe() != "levy" {
		t.Error("describe")
	}
}
