package main

// The output oracle: the exact response bytes for every (spec, load)
// pair a workload can draw, computed at set-up, off the clock, with the
// same public calls the service makes. Every response the benchmark
// receives is compared with them byte for byte.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/contract"
	"repro/internal/hpc"
	"repro/internal/optimize"
	"repro/internal/serve"
	"repro/internal/timeseries"
	"repro/internal/units"
)

type oracle struct {
	w       *workload
	engines []*contract.Engine
	// keys are the specs' content hashes: the router's routing key and
	// the backends' engine-cache key.
	keys  []string
	loads []*timeseries.PowerSeries
	// items[spec][load] is the expected body of a single bill, a batch
	// item or an optimize response.
	items [][][]byte
}

func newOracle(in *inputs) (*oracle, error) {
	o := &oracle{w: in.w}
	for _, raw := range in.specs {
		eng, key, err := compileSpec(raw)
		if err != nil {
			return nil, err
		}
		o.engines = append(o.engines, eng)
		o.keys = append(o.keys, key)
	}
	for _, ls := range in.loads {
		load, err := resolveLoad(ls)
		if err != nil {
			return nil, err
		}
		o.loads = append(o.loads, load)
	}
	o.items = make([][][]byte, len(o.engines))
	for s := range o.engines {
		o.items[s] = make([][]byte, len(o.loads))
		for l := range o.loads {
			body, err := o.render(s, l)
			if err != nil {
				return nil, fmt.Errorf("oracle: spec %d, load %d: %w", s, l, err)
			}
			o.items[s][l] = body
		}
	}
	return o, nil
}

// compileSpec parses, hashes and compiles a static spec as the service
// does on an engine-cache miss.
func compileSpec(raw []byte) (*contract.Engine, string, error) {
	spec, err := contract.ParseSpec(raw)
	if err != nil {
		return nil, "", err
	}
	key, err := contract.HashSpec(spec)
	if err != nil {
		return nil, "", err
	}
	c, err := spec.Build(contract.BuildContext{})
	if err != nil {
		return nil, "", err
	}
	eng, err := contract.NewEngine(c)
	return eng, key, err
}

// resolveLoad materializes the two load forms the workloads send, with
// the calls the service makes for them.
func resolveLoad(ls serve.LoadSpec) (*timeseries.PowerSeries, error) {
	switch {
	case ls.Profile != "":
		cfg, ok := serve.NamedProfiles()[ls.Profile]
		if !ok {
			return nil, fmt.Errorf("unknown profile %q", ls.Profile)
		}
		return hpc.SyntheticFacilityLoad(cfg)
	case ls.Series != nil:
		samples := make([]units.Power, len(ls.Series.KW))
		for i, v := range ls.Series.KW {
			samples[i] = units.Power(v)
		}
		return timeseries.NewPower(ls.Series.Start, time.Duration(ls.Series.IntervalSeconds)*time.Second, samples)
	}
	return nil, errors.New("load: neither profile nor series")
}

func (o *oracle) render(s, l int) ([]byte, error) {
	eng, load := o.engines[s], o.loads[l]
	switch {
	case o.w.name == "optimize":
		res, err := optimize.Optimize(context.Background(), eng, load, contract.BillingInput{}, optimizeFlex,
			optimize.Options{Seed: optimizeSearch.Seed, Candidates: optimizeSearch.Candidates})
		if err != nil {
			return nil, err
		}
		return optimizeBody(res)
	case o.w.monthly:
		bills, err := eng.BillMonths(load, contract.BillingInput{})
		if err != nil {
			return nil, err
		}
		return monthlyBody(eng, bills)
	default:
		bill, err := eng.Bill(load, contract.BillingInput{})
		if err != nil {
			return nil, err
		}
		return bill.JSON()
	}
}

// expect returns the exact response body for d.
func (o *oracle) expect(d descriptor) []byte {
	if !o.w.batch {
		return o.items[d.spec][d.loads[0]]
	}
	bodies := make([][]byte, len(d.loads))
	for i, l := range d.loads {
		bodies[i] = o.items[d.spec][l]
	}
	return batchEnvelope(bodies)
}

// optimizeBody renders an optimize response as /v1/optimize serves it.
func optimizeBody(res *optimize.Result) ([]byte, error) {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// monthlyBody renders a monthly bill as /v1/bill?monthly=1 and each
// monthly batch item serve it: every month's Bill.JSON and the grand
// total, indented by encoding/json.
func monthlyBody(eng *contract.Engine, bills []*contract.Bill) ([]byte, error) {
	months := make([]json.RawMessage, len(bills))
	for i, b := range bills {
		data, err := b.JSON()
		if err != nil {
			return nil, err
		}
		months[i] = data
	}
	return json.MarshalIndent(struct {
		Contract   string            `json:"contract"`
		Months     []json.RawMessage `json:"months"`
		GrandTotal float64           `json:"grand_total"`
	}{eng.Contract().Name, months, contract.TotalOf(bills).Float()}, "", "  ")
}

// batchEnvelope is the /v1/bill/batch response around item bodies that
// all answered 200: the service writes it by hand so that item bodies
// embed verbatim.
func batchEnvelope(bodies [][]byte) []byte {
	var b bytes.Buffer
	n := 64
	for _, body := range bodies {
		n += len(body) + 32
	}
	b.Grow(n)
	b.WriteString("{\n  \"count\": ")
	b.WriteString(strconv.Itoa(len(bodies)))
	b.WriteString(",\n  \"items\": [")
	for i, body := range bodies {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("\n    {\"status\": 200, \"body\": ")
		b.Write(body)
		b.WriteByte('}')
	}
	b.WriteString("\n  ]\n}\n")
	return b.Bytes()
}
