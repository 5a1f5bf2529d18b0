package main

// The four workloads, their seeded input pools and their request
// streams. A workload's inputs and its stream of requests are a pure
// function of the seed; the fleet under test only ever sees the request
// bodies built from them. A seed moves prices, windows, limits and load
// shapes but never the mix of shapes, so every seed drives the same code
// paths in the same proportions and runs with different seeds compare.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/contract"
	"repro/internal/hpc"
	"repro/internal/optimize"
	"repro/internal/serve"
	"repro/internal/units"
)

// workload is one traffic mix.
type workload struct {
	name string
	path string
	// clients is the closed-loop client count; 0 selects the open-loop
	// rate ladder.
	clients int
	// batch requests carry batchLoads loads against one spec; monthly
	// ones bill every calendar month of each load.
	batch, monthly bool
}

// batchLoads is the number of loads in one batch request.
const batchLoads = 16

var workloads = []*workload{
	{name: "bill-open", path: "/v1/bill"},
	{name: "batch-inline", path: "/v1/bill/batch", clients: 2, batch: true},
	{name: "batch-profile", path: "/v1/bill/batch?monthly=1", clients: 2, batch: true, monthly: true},
	{name: "optimize", path: "/v1/optimize", clients: 2},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// The optimize workload's fixed search: 10 % deferrable and 20 %
// partial flexibility, 250 candidates from search seed 1.
var (
	optimizeFlex   = optimize.Flexibility{DeferrableFraction: 0.10, PartialFraction: 0.20}
	optimizeSearch = serve.SearchSpec{Seed: 1, Candidates: 250}
)

type tariffKind int

const (
	fixedTariff tariffKind = iota
	touTariff
	seasonalTariff
	cppTariff
)

var demandMethods = []string{"n-peak-average", "single-peak", "ratchet"}

// between draws uniformly from [lo, hi).
func between(rng *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }

// genSpec draws one contract spec of the given shape.
func genSpec(rng *rand.Rand, name string, kind tariffKind, method string, band bool) contract.Spec {
	s := contract.Spec{Name: fmt.Sprintf("%s-%04d", name, rng.Intn(10000))}
	switch kind {
	case fixedTariff:
		s.Tariffs = []contract.TariffSpec{{Type: "fixed", Rate: between(rng, 0.05, 0.12)}}
	case touTariff, seasonalTariff:
		t := contract.TariffSpec{Type: "tou", DayRate: between(rng, 0.09, 0.15), NightRate: between(rng, 0.04, 0.07),
			DayFrom: 7 + rng.Intn(3), DayTo: 19 + rng.Intn(3)}
		if kind == seasonalTariff {
			t.SummerDayRate = between(rng, 0.15, 0.20)
		}
		s.Tariffs = []contract.TariffSpec{t}
	case cppTariff:
		s.Tariffs = []contract.TariffSpec{{Type: "cpp", Rate: between(rng, 0.06, 0.09),
			CriticalRate: between(rng, 0.5, 1.0), MaxCriticalEvents: 1 + rng.Intn(4)}}
	}
	dc := contract.DemandChargeSpec{PricePerKW: between(rng, 8, 16), Method: method}
	switch method {
	case "n-peak-average":
		dc.NPeaks = 2 + rng.Intn(4)
	case "ratchet":
		dc.RatchetFraction = between(rng, 0.6, 0.9)
	}
	s.DemandCharges = []contract.DemandChargeSpec{dc}
	if band {
		s.Powerbands = []contract.PowerbandSpec{{
			LowerKW: between(rng, 6000, 8000), UnderPenalty: between(rng, 0.05, 0.2),
			UpperKW: between(rng, 15000, 17500), OverPenalty: between(rng, 0.2, 0.6),
		}}
	}
	s.Fees = []contract.FeeSpec{{Name: "meter fee", Amount: math.Round(between(rng, 200, 800))}}
	return s
}

// mixedPool is 48 specs covering every (tariff kind × demand method ×
// powerband) shape twice. A quarter of them are CPP, which bills on the
// per-sample walk; the rest compile to the columnar kernels.
func mixedPool(rng *rand.Rand) []contract.Spec {
	kinds := []tariffKind{fixedTariff, touTariff, seasonalTariff, cppTariff}
	out := make([]contract.Spec, 48)
	for i := range out {
		out[i] = genSpec(rng, fmt.Sprintf("mixed-%02d", i), kinds[i%4], demandMethods[(i/4)%3], (i/12)%2 == 1)
	}
	return out
}

// flatPool is 16 CPP-free specs, so every bill takes the columnar path.
func flatPool(rng *rand.Rand) []contract.Spec {
	kinds := []tariffKind{fixedTariff, touTariff, seasonalTariff}
	out := make([]contract.Spec, 16)
	for i := range out {
		out[i] = genSpec(rng, fmt.Sprintf("flat-%02d", i), kinds[i%3], demandMethods[(i/3)%3], (i/9)%2 == 1)
	}
	return out
}

// optimizePool is four CPP-free specs, each with a demand charge the
// search can shave.
func optimizePool(rng *rand.Rand) []contract.Spec {
	return []contract.Spec{
		genSpec(rng, "opt-0", fixedTariff, "n-peak-average", false),
		genSpec(rng, "opt-1", touTariff, "single-peak", false),
		genSpec(rng, "opt-2", fixedTariff, "ratchet", true),
		genSpec(rng, "opt-3", seasonalTariff, "n-peak-average", true),
	}
}

// profileNames are the service's named load profiles, sorted.
func profileNames() []string {
	var names []string
	for n := range serve.NamedProfiles() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// inlineLoads draws n month-long 15-minute loads, each sent inline as
// JSON samples.
func inlineLoads(rng *rand.Rand, n int) ([]serve.LoadSpec, error) {
	out := make([]serve.LoadSpec, n)
	for i := range out {
		start := time.Date(2016, time.Month(1+i%12), 1, 0, 0, 0, 0, time.UTC)
		ps, err := hpc.SyntheticFacilityLoad(hpc.LoadProfileConfig{
			Start: start, Span: 30 * 24 * time.Hour, Interval: 15 * time.Minute,
			Base:          units.Power(between(rng, 9, 15)) * units.Megawatt,
			PeakToAverage: between(rng, 1.3, 1.8),
			NoiseSigma:    between(rng, 0.01, 0.04),
			Seed:          rng.Int63(),
		})
		if err != nil {
			return nil, err
		}
		kw := make([]float64, ps.Len())
		for j, p := range ps.Samples() {
			kw[j] = float64(p)
		}
		out[i] = serve.LoadSpec{Series: &serve.SeriesSpec{Start: start, IntervalSeconds: 900, KW: kw}}
	}
	return out, nil
}

// inputs is a workload's seeded input pools in wire form.
type inputs struct {
	w     *workload
	specs [][]byte // compact spec JSON
	loads []serve.LoadSpec
	// loadJSON is each load's wire form, encoded once so building a
	// request body is a copy.
	loadJSON [][]byte
	// tail holds the request fields after the load(s).
	tail []byte
	seed int64
}

func newInputs(w *workload, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{w: w, seed: seed}
	var specs []contract.Spec
	switch w.name {
	case "bill-open", "batch-profile":
		specs = mixedPool(rng)
	case "batch-inline":
		specs = flatPool(rng)
	case "optimize":
		specs = optimizePool(rng)
	}
	switch w.name {
	case "batch-inline":
		loads, err := inlineLoads(rng, 32)
		if err != nil {
			return nil, err
		}
		in.loads = loads
	case "optimize":
		in.loads = []serve.LoadSpec{{Profile: "year-in-life"}}
	default:
		for _, n := range profileNames() {
			in.loads = append(in.loads, serve.LoadSpec{Profile: n})
		}
	}
	for i := range specs {
		raw, err := json.Marshal(&specs[i])
		if err != nil {
			return nil, err
		}
		in.specs = append(in.specs, raw)
	}
	for _, l := range in.loads {
		raw, err := json.Marshal(l)
		if err != nil {
			return nil, err
		}
		in.loadJSON = append(in.loadJSON, raw)
	}
	if w.name == "optimize" {
		flex, err := json.Marshal(optimizeFlex)
		if err != nil {
			return nil, err
		}
		search, err := json.Marshal(optimizeSearch)
		if err != nil {
			return nil, err
		}
		in.tail = []byte(`,"flexibility":` + string(flex) + `,"search":` + string(search))
	}
	return in, nil
}

// descriptor names one request: a spec and the loads billed against it,
// as indexes into the workload's pools.
type descriptor struct {
	spec  int
	loads []int
}

// body builds the request body for d.
func (in *inputs) body(d descriptor) []byte {
	n := 32 + len(in.specs[d.spec]) + len(in.tail)
	for _, l := range d.loads {
		n += len(in.loadJSON[l]) + 1
	}
	b := make([]byte, 0, n)
	b = append(b, `{"contract":`...)
	b = append(b, in.specs[d.spec]...)
	if in.w.batch {
		b = append(b, `,"loads":[`...)
		for i, l := range d.loads {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, in.loadJSON[l]...)
		}
		b = append(b, ']')
	} else {
		b = append(b, `,"load":`...)
		b = append(b, in.loadJSON[d.loads[0]]...)
	}
	b = append(b, in.tail...)
	return append(b, '}')
}

func (in *inputs) loadsPerRequest() int {
	if in.w.batch {
		return batchLoads
	}
	return 1
}

// warmup is one request per distinct spec, cycling through the load
// pool so that every load is sent too.
func (in *inputs) warmup() []descriptor {
	out := make([]descriptor, len(in.specs))
	k := 0
	for i := range out {
		loads := make([]int, in.loadsPerRequest())
		for j := range loads {
			loads[j] = k % len(in.loads)
			k++
		}
		out[i] = descriptor{spec: i, loads: loads}
	}
	return out
}

// stream is a workload's seeded request sequence. It is safe for
// concurrent use; concurrent clients share one sequence.
type stream struct {
	mu  sync.Mutex
	rng *rand.Rand
	in  *inputs
}

// stream starts the request sequence. It draws from its own source, so
// the sequence does not depend on how the pools were drawn.
func (in *inputs) stream() *stream {
	return &stream{rng: rand.New(rand.NewSource(^in.seed)), in: in}
}

func (s *stream) next() descriptor {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := descriptor{spec: s.rng.Intn(len(s.in.specs)), loads: make([]int, s.in.loadsPerRequest())}
	for i := range d.loads {
		d.loads[i] = s.rng.Intn(len(s.in.loads))
	}
	return d
}

// take draws the next n descriptors.
func (s *stream) take(n int) []descriptor {
	out := make([]descriptor, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}
