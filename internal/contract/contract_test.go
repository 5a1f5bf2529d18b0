package contract

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/calendar"
	"repro/internal/demand"
	"repro/internal/tariff"
	"repro/internal/timeseries"
	"repro/internal/units"
)

var t0 = time.Date(2016, time.March, 1, 0, 0, 0, 0, time.UTC)

func flatLoad(n int, p units.Power) *timeseries.PowerSeries {
	return timeseries.ConstantPower(t0, time.Hour, n, p)
}

func load(kw ...float64) *timeseries.PowerSeries {
	samples := make([]units.Power, len(kw))
	for i, v := range kw {
		samples[i] = units.Power(v)
	}
	return timeseries.MustNewPower(t0, time.Hour, samples)
}

func simpleContract() *Contract {
	return &Contract{
		Name:          "test",
		Tariffs:       []tariff.Tariff{tariff.MustNewFixed(0.10)},
		DemandCharges: []*demand.Charge{demand.SimpleCharge(12)},
	}
}

func TestComponentNamesAndBranches(t *testing.T) {
	for _, c := range AllComponents() {
		if c.String() == "" || strings.HasPrefix(c.String(), "Component(") {
			t.Errorf("component %d should have a name", int(c))
		}
		if c.Branch() == "unknown" {
			t.Errorf("component %v should have a branch", c)
		}
	}
	if Component(99).String() == "" || Component(99).Branch() != "unknown" {
		t.Error("unknown component handling")
	}
	if len(AllComponents()) != 6 {
		t.Error("Table 2 has six component columns")
	}
}

func TestValidate(t *testing.T) {
	var nilC *Contract
	if err := nilC.Validate(); err == nil {
		t.Error("nil contract should fail")
	}
	if err := (&Contract{Name: "x"}).Validate(); err == nil {
		t.Error("no tariffs should fail")
	}
	if err := (&Contract{Name: "x", Tariffs: []tariff.Tariff{nil}}).Validate(); err == nil {
		t.Error("nil tariff should fail")
	}
	bad := &Contract{
		Name:        "x",
		Tariffs:     []tariff.Tariff{tariff.MustNewFixed(0.1)},
		Emergencies: []*EmergencyObligation{{Cap: -1}},
	}
	if err := bad.Validate(); err == nil {
		t.Error("invalid emergency should fail")
	}
	if err := simpleContract().Validate(); err != nil {
		t.Errorf("valid contract: %v", err)
	}
}

func TestEmergencyObligationValidate(t *testing.T) {
	cases := []EmergencyObligation{
		{Cap: -1},
		{Penalty: -1},
		{Notice: -time.Minute},
	}
	for i, o := range cases {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	good := EmergencyObligation{Name: "PJM", Cap: 5000, Notice: 30 * time.Minute, Penalty: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("good obligation: %v", err)
	}
	if !strings.Contains(good.Describe(), "PJM") {
		t.Error("describe should include name")
	}
	if !strings.Contains((&EmergencyObligation{}).Describe(), "emergency DR") {
		t.Error("unnamed obligation describe")
	}
}

func TestEmergencyEventCovers(t *testing.T) {
	e := EmergencyEvent{Start: t0, Duration: time.Hour}
	if !e.Covers(t0) || e.Covers(e.End()) || e.Covers(t0.Add(-time.Second)) {
		t.Error("event coverage is half-open [start, end)")
	}
}

func TestEmergencyCost(t *testing.T) {
	o := &EmergencyObligation{Cap: 5000, Penalty: 2}
	l := load(10000, 10000, 10000) // 3 hours at 10 MW
	ev := []EmergencyEvent{{Start: t0.Add(time.Hour), Duration: time.Hour}}
	// Only hour 2 is covered: excess 5 MW × 1 h × 2/kWh = 10000.
	if got, want := o.Cost(l, ev), units.CurrencyUnits(10000); got != want {
		t.Errorf("cost = %v, want %v", got, want)
	}
	if o.Cost(l, nil) != 0 {
		t.Error("no events, no cost")
	}
	// Compliant load: no cost even during events.
	if o.Cost(load(4000, 4000, 4000), ev) != 0 {
		t.Error("compliant load should cost nothing")
	}
}

func TestClassify(t *testing.T) {
	c := &Contract{
		Name: "full",
		Tariffs: []tariff.Tariff{
			tariff.MustNewFixed(0.1),
		},
		DemandCharges: []*demand.Charge{demand.SimpleCharge(10)},
		Powerbands:    []*demand.Powerband{demand.MustNewPowerband(1000, 9000, 1, 1)},
		Emergencies:   []*EmergencyObligation{{Cap: 5000, Penalty: 1}},
	}
	p := Classify(c)
	if !p.FixedTariff || p.TOUTariff || p.DynamicTariff {
		t.Errorf("tariff classification = %+v", p)
	}
	if !p.DemandCharge || !p.Powerband || !p.EmergencyDR {
		t.Errorf("kW/other classification = %+v", p)
	}
	if !p.EncouragesDSM() {
		t.Error("should encourage DSM")
	}
	if !p.EncouragesRealTimeDR() {
		t.Error("emergency DR is a real-time element")
	}
	if len(p.Components()) != 4 {
		t.Errorf("Components = %v", p.Components())
	}
	if p.String() == "(none)" {
		t.Error("String should list components")
	}
}

func TestClassifyRiderEntriesTickBoth(t *testing.T) {
	// The Sites 1/9 configuration as survey.SiteSpec builds it: a fixed
	// base and a TOU service-charge rider as two tariff entries.
	c := &Contract{Name: "site1", Tariffs: []tariff.Tariff{tariff.MustNewFixed(0.08), mustTOU()}}
	p := Classify(c)
	if !p.FixedTariff || !p.TOUTariff || p.DynamicTariff {
		t.Errorf("fixed + TOU entries should tick fixed and TOU only: %+v", p)
	}
}

// mustTOU builds a simple day/night TOU tariff for tests.
func mustTOU() *tariff.TOUTariff {
	return tariff.MustNewTOU(
		dayNightSchedule(),
		map[string]units.EnergyPrice{"peak": 0.2, "offpeak": 0.05},
	)
}

func TestProfileHasExhaustive(t *testing.T) {
	p := Profile{
		DemandCharge: true, Powerband: true, FixedTariff: true,
		TOUTariff: true, DynamicTariff: true, EmergencyDR: true,
	}
	for _, c := range AllComponents() {
		if !p.Has(c) {
			t.Errorf("full profile should have %v", c)
		}
	}
	if p.Has(Component(99)) {
		t.Error("unknown component should be false")
	}
	var empty Profile
	if empty.EncouragesDSM() || empty.EncouragesRealTimeDR() {
		t.Error("empty profile encourages nothing")
	}
	if empty.String() != "(none)" {
		t.Error("empty profile string")
	}
}

func TestComputeBill(t *testing.T) {
	c := simpleContract()
	l := flatLoad(24, 10000) // 10 MW flat for a day = 240 MWh
	bill, err := ComputeBill(c, l, BillingInput{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bill.Energy.MWh()-240) > 1e-9 {
		t.Errorf("Energy = %v", bill.Energy)
	}
	if bill.PeakDemand != 10000 {
		t.Errorf("PeakDemand = %v", bill.PeakDemand)
	}
	// Tariff: 240 MWh × 0.10 = 24000. Demand: 10 MW × 12 = 120000.
	wantTotal := units.CurrencyUnits(24000 + 120000)
	if bill.Total != wantTotal {
		t.Errorf("Total = %v, want %v", bill.Total, wantTotal)
	}
	// Total is the exact sum of lines.
	var sum units.Money
	for _, line := range bill.Lines {
		sum += line.Amount
	}
	if sum != bill.Total {
		t.Error("Total must equal sum of lines")
	}
	if bill.String() == "" {
		t.Error("bill should format")
	}
}

func TestComputeBillErrors(t *testing.T) {
	if _, err := ComputeBill(&Contract{Name: "x"}, flatLoad(1, 1), BillingInput{}); err == nil {
		t.Error("invalid contract should fail")
	}
	if _, err := ComputeBill(simpleContract(), nil, BillingInput{}); err == nil {
		t.Error("nil load should fail")
	}
	empty := timeseries.MustNewPower(t0, time.Hour, nil)
	if _, err := ComputeBill(simpleContract(), empty, BillingInput{}); err == nil {
		t.Error("empty load should fail")
	}
}

func TestBillComponentTotalAndDemandShare(t *testing.T) {
	c := simpleContract()
	l := flatLoad(24, 10000)
	bill, err := ComputeBill(c, l, BillingInput{})
	if err != nil {
		t.Fatal(err)
	}
	energy := bill.ComponentTotal(CompFixedTariff)
	dc := bill.ComponentTotal(CompDemandCharge)
	if energy != units.CurrencyUnits(24000) || dc != units.CurrencyUnits(120000) {
		t.Errorf("component totals = %v / %v", energy, dc)
	}
	share := bill.DemandShare()
	want := 120000.0 / 144000.0
	if math.Abs(share-want) > 1e-9 {
		t.Errorf("DemandShare = %v, want %v", share, want)
	}
	zero := &Bill{}
	if zero.DemandShare() != 0 {
		t.Error("zero bill share = 0")
	}
}

func TestBillWithAllComponents(t *testing.T) {
	c := &Contract{
		Name:          "full",
		Tariffs:       []tariff.Tariff{tariff.MustNewFixed(0.10)},
		DemandCharges: []*demand.Charge{demand.SimpleCharge(12)},
		Powerbands:    []*demand.Powerband{demand.MustNewPowerband(1000, 9000, 0.5, 1.0)},
		Emergencies:   []*EmergencyObligation{{Cap: 5000, Penalty: 2}},
		Fees:          []FixedFee{{Name: "metering", Amount: units.CurrencyUnits(500)}},
	}
	l := load(10000, 8000, 8000)
	ev := []EmergencyEvent{{Start: t0, Duration: time.Hour}}
	bill, err := ComputeBill(c, l, BillingInput{Events: ev})
	if err != nil {
		t.Fatal(err)
	}
	if len(bill.Lines) != 5 {
		t.Fatalf("lines = %d, want 5", len(bill.Lines))
	}
	// Powerband: hour 0 at 10 MW breaches 9 MW → 1 MWh × 1.0 = 1000.
	if got := bill.ComponentTotal(CompPowerband); got != units.CurrencyUnits(1000) {
		t.Errorf("powerband total = %v", got)
	}
	// Emergency: hour 0 covered, excess 5 MWh × 2 = 10000.
	if got := bill.ComponentTotal(CompEmergencyDR); got != units.CurrencyUnits(10000) {
		t.Errorf("emergency total = %v", got)
	}
	// Fee line carries the real flat-fee component.
	var feeSeen bool
	for _, line := range bill.Lines {
		if line.Component == CompFlatFee && line.Amount == units.CurrencyUnits(500) {
			feeSeen = true
		}
	}
	if !feeSeen {
		t.Error("fee line missing")
	}
	if got := bill.ComponentTotal(CompFlatFee); got != units.CurrencyUnits(500) {
		t.Errorf("flat-fee total = %v", got)
	}
	if CompFlatFee.Branch() != "fees" {
		t.Errorf("flat-fee branch = %q", CompFlatFee.Branch())
	}
}

func TestBillMonthsThreadsRatchet(t *testing.T) {
	c := &Contract{
		Name:          "ratchet",
		Tariffs:       []tariff.Tariff{tariff.MustNewFixed(0.05)},
		DemandCharges: []*demand.Charge{demand.MustNewCharge(10, demand.Ratchet, 0, 0.8)},
	}
	// Two months: March with a 20 MW spike, April flat at 10 MW.
	march := 31 * 24
	april := 30 * 24
	samples := make([]units.Power, march+april)
	for i := range samples {
		samples[i] = 10000
	}
	samples[100] = 20000
	l := timeseries.MustNewPower(t0, time.Hour, samples)
	bills, err := BillMonths(c, l, BillingInput{})
	if err != nil {
		t.Fatal(err)
	}
	if len(bills) != 2 {
		t.Fatalf("months = %d", len(bills))
	}
	// April's ratchet floor: 0.8 × 20 MW = 16 MW > its own 10 MW peak.
	aprDC := bills[1].ComponentTotal(CompDemandCharge)
	if aprDC != units.DemandPrice(10).Cost(16000) {
		t.Errorf("April demand charge = %v, want ratcheted 16 MW", aprDC)
	}
	if TotalOf(bills) != bills[0].Total+bills[1].Total {
		t.Error("TotalOf")
	}
}

// A mid-year peak must ratchet every later month's billed demand while
// leaving earlier months untouched — the "one bad month haunts the whole
// year" behavior, asserted month by month across the parallel evaluator.
func TestBillMonthsRatchetMidYearPeak(t *testing.T) {
	c := &Contract{
		Name:          "ratchet-year",
		Tariffs:       []tariff.Tariff{tariff.MustNewFixed(0.05)},
		DemandCharges: []*demand.Charge{demand.MustNewCharge(10, demand.Ratchet, 0, 0.8)},
	}
	// Six months (Mar–Aug 2016), flat 10 MW except a 25 MW spike in June.
	start := t0
	end := time.Date(2016, time.September, 1, 0, 0, 0, 0, time.UTC)
	n := int(end.Sub(start) / time.Hour)
	samples := make([]units.Power, n)
	for i := range samples {
		samples[i] = 10000
	}
	spike := time.Date(2016, time.June, 15, 12, 0, 0, 0, time.UTC)
	samples[int(spike.Sub(start)/time.Hour)] = 25000
	l := timeseries.MustNewPower(start, time.Hour, samples)

	bills, err := BillMonths(c, l, BillingInput{})
	if err != nil {
		t.Fatal(err)
	}
	if len(bills) != 6 {
		t.Fatalf("months = %d, want 6", len(bills))
	}
	price := units.DemandPrice(10)
	// Months before the spike bill their own 10 MW peak; the spike month
	// bills 25 MW; every later month floors at 0.8 × 25 MW = 20 MW.
	want := []units.Power{10000, 10000, 10000, 25000, 20000, 20000}
	for i, b := range bills {
		if got := b.ComponentTotal(CompDemandCharge); got != price.Cost(want[i]) {
			t.Errorf("month %d (%s) demand charge = %v, want %v billed at %v",
				i, b.PeriodStart.Format("2006-01"), got, price.Cost(want[i]), want[i])
		}
	}
	// The engine's parallel path must agree with the sequential legacy
	// threading exactly.
	legacy, err := BillMonthsLegacy(c, l, BillingInput{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range bills {
		if bills[i].Total != legacy[i].Total {
			t.Errorf("month %d total = %v, legacy %v", i, bills[i].Total, legacy[i].Total)
		}
	}
}

func TestBillMonthsPropagatesError(t *testing.T) {
	bad := &Contract{Name: "x"}
	if _, err := BillMonths(bad, flatLoad(24, 1), BillingInput{}); err == nil {
		t.Error("invalid contract should propagate")
	}
}

func TestBillJSON(t *testing.T) {
	c := &Contract{
		Name:          "json-test",
		Tariffs:       []tariff.Tariff{tariff.MustNewFixed(0.10)},
		DemandCharges: []*demand.Charge{demand.SimpleCharge(12)},
		Fees:          []FixedFee{{Name: "metering", Amount: units.CurrencyUnits(500)}},
	}
	bill, err := ComputeBill(c, flatLoad(24, 10000), BillingInput{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := bill.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("bill JSON not parseable: %v", err)
	}
	if decoded["contract"] != "json-test" {
		t.Error("contract name missing")
	}
	if decoded["total"].(float64) != bill.Total.Float() {
		t.Error("total mismatch")
	}
	lines := decoded["lines"].([]interface{})
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	last := lines[2].(map[string]interface{})
	if last["component"] != "flat-fee" {
		t.Errorf("fee component = %v", last["component"])
	}
	first := lines[0].(map[string]interface{})
	if first["component"] != "fixed-tariff" {
		t.Errorf("tariff component = %v", first["component"])
	}
}

func TestTypologyTree(t *testing.T) {
	tree := Typology()
	leaves := tree.Leaves()
	if len(leaves) != 6 {
		t.Fatalf("typology has %d leaves, want 6", len(leaves))
	}
	// Every leaf maps to a distinct component.
	seen := map[Component]bool{}
	for _, l := range leaves {
		if l.Component < 0 {
			t.Errorf("leaf %q must carry a component", l.Title)
		}
		if seen[l.Component] {
			t.Errorf("duplicate component %v", l.Component)
		}
		seen[l.Component] = true
		if l.Encourages == "" {
			t.Errorf("leaf %q must state its incentive", l.Title)
		}
	}
	// Three branches under the root.
	if len(tree.Children) != 3 {
		t.Errorf("branches = %d, want 3", len(tree.Children))
	}
	if n := tree.Find("Powerband"); n == nil || !n.IsLeaf() {
		t.Error("Find(Powerband)")
	}
	if tree.Find("nonexistent") != nil {
		t.Error("Find should return nil for unknown title")
	}
	// Walk depth sanity: root 0, branches 1, leaves 2.
	tree.Walk(func(n *TypologyNode, depth int) {
		if n.IsLeaf() && depth != 2 {
			t.Errorf("leaf %q at depth %d", n.Title, depth)
		}
	})
}

// Property: the bill total always equals the exact sum of line items.
func TestQuickBillTotalIsSumOfLines(t *testing.T) {
	c := &Contract{
		Name:          "q",
		Tariffs:       []tariff.Tariff{tariff.MustNewFixed(0.09)},
		DemandCharges: []*demand.Charge{demand.SimpleCharge(11)},
		Powerbands:    []*demand.Powerband{demand.MustNewPowerband(500, 9000, 0.4, 1.1)},
	}
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]units.Power, len(raw))
		for i, v := range raw {
			samples[i] = units.Power(v)
		}
		l := timeseries.MustNewPower(t0, time.Hour, samples)
		bill, err := ComputeBill(c, l, BillingInput{})
		if err != nil {
			return false
		}
		var sum units.Money
		for _, line := range bill.Lines {
			sum += line.Amount
		}
		return sum == bill.Total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: power capping can only reduce (or keep) the bill under a
// contract of fixed tariff + demand charge + upper powerband.
func TestQuickCappingNeverRaisesBill(t *testing.T) {
	band, _ := demand.NewUpperPowerband(8000, 2)
	c := &Contract{
		Name:          "q2",
		Tariffs:       []tariff.Tariff{tariff.MustNewFixed(0.09)},
		DemandCharges: []*demand.Charge{demand.SimpleCharge(11)},
		Powerbands:    []*demand.Powerband{band},
	}
	f := func(raw []uint16, capRaw uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]units.Power, len(raw))
		for i, v := range raw {
			samples[i] = units.Power(v)
		}
		l := timeseries.MustNewPower(t0, time.Hour, samples)
		capped := l.ClampAbove(units.Power(capRaw))
		b1, err1 := ComputeBill(c, l, BillingInput{})
		b2, err2 := ComputeBill(c, capped, BillingInput{})
		if err1 != nil || err2 != nil {
			return false
		}
		return b2.Total <= b1.Total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func dayNightSchedule() *calendar.Schedule {
	return calendar.DayNight(8, 20, nil)
}
