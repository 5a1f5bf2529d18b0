package main

// The traced run replays a workload's request stream one request at a
// time. Each request is sent five ways, and each way is a span:
//
//	client.request  over loopback through the router
//	route.handler   Router.Handler().ServeHTTP in process
//	serve.http      over loopback straight to the backend route.Rank puts first
//	serve.handler   that backend's Server.Handler().ServeHTTP in process
//	pipeline        the public calls serve makes for the request, each a child span
//
// Each way adds one layer to the next, so the paired difference of
// adjacent ways is that layer's own time: route.self = route.handler −
// serve.http, serve.transport = serve.http − serve.handler, serve.glue =
// serve.handler − the pipeline's children. Every way's output is checked
// against the oracle, the pipeline's included, so a pipeline that no
// longer mirrors serve fails the run instead of skewing the table.
// Two more spans per request time work the request path hides: the
// router's routing key and the compile the engine cache saves.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/contract"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/timeseries"
)

// span is one timed call. The spans of one replayed request share Req;
// Parent is the enclosing span's ID, 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. The replay is sequential, so it takes
// no lock.
type tracer struct {
	base  time.Time
	spans []span
}

func (t *tracer) start(req, parent int64, name string) int64 {
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.base))})
	return id
}

func (t *tracer) end(id int64) { t.spans[id-1].End = int64(time.Since(t.base)) }

func (t *tracer) do(req, parent int64, name string, fn func()) {
	id := t.start(req, parent, name)
	fn()
	t.end(id)
}

func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfTime is the span's duration minus the part of it that its
// children cover; overlapping children count once.
func selfTime(s span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, reach int64
	reach = s.Start
	for _, v := range ivs {
		lo := max(v.lo, reach)
		if v.hi > lo {
			covered += v.hi - lo
			reach = v.hi
		}
	}
	return s.End - s.Start - covered
}

// pipeline makes the public calls serve makes for one request.
type pipeline struct {
	w *workload
	// engines is the warm engine cache, by spec hash.
	engines map[string]*contract.Engine
	// reg receives the engine's own spans, as the server's registry
	// does: serve bills under an obs.WithSpans context.
	reg *obs.Registry
}

func newPipeline(o *oracle) *pipeline {
	p := &pipeline{w: o.w, engines: make(map[string]*contract.Engine), reg: obs.NewRegistry()}
	for i, k := range o.keys {
		p.engines[k] = o.engines[i]
	}
	return p
}

// run answers one request body as serve would, recording a child span
// of parent per call.
func (p *pipeline) run(tr *tracer, req, parent int64, body []byte) ([]byte, error) {
	ctx := obs.WithSpans(context.Background(), p.reg)
	do := func(name string, fn func()) { tr.do(req, parent, name, fn) }
	var err error
	load := func(ls serve.LoadSpec) (l *timeseries.PowerSeries) {
		name := "hpc.synthesize"
		if ls.Series != nil {
			name = "timeseries.new_power"
		}
		do(name, func() { l, err = resolveLoad(ls) })
		return l
	}
	// key parses and hashes a spec once; lookup is one engine-cache
	// lookup, which serve makes per batch item.
	key := func(raw json.RawMessage) (k string) {
		var spec *contract.Spec
		if do("contract.parse", func() { spec, err = contract.ParseSpec(raw) }); err == nil {
			do("contract.hash", func() { k, err = contract.HashSpec(spec) })
		}
		return k
	}
	lookup := func(k string) (eng *contract.Engine) {
		do("serve.cache", func() { eng = p.engines[k] })
		if eng == nil {
			err = errors.New("engine not in the warm cache")
		}
		return eng
	}
	engine := func(raw json.RawMessage) *contract.Engine {
		if k := key(raw); err == nil {
			return lookup(k)
		}
		return nil
	}
	var out []byte
	switch {
	case p.w.batch:
		var r serve.BatchRequest
		if do("serve.decode", func() { err = json.Unmarshal(body, &r) }); err != nil {
			return nil, err
		}
		loads := make([]*timeseries.PowerSeries, len(r.Loads))
		for i := range r.Loads {
			if loads[i] = load(r.Loads[i]); err != nil {
				return nil, err
			}
		}
		k := key(r.Contract)
		if err != nil {
			return nil, err
		}
		items := make([]contract.BatchItem, len(loads))
		for i := range items {
			if items[i] = (contract.BatchItem{Engine: lookup(k), Load: loads[i]}); err != nil {
				return nil, err
			}
		}
		var outcomes []contract.BatchOutcome
		do("contract.bill_batch", func() {
			outcomes = contract.BillBatch(ctx, items, contract.BillingInput{},
				contract.BatchOptions{Monthly: p.w.monthly, Workers: runtime.GOMAXPROCS(0)})
		})
		do("contract.encode", func() {
			bodies := make([][]byte, len(outcomes))
			for i, oc := range outcomes {
				if err = oc.Err; err != nil {
					return
				}
				if p.w.monthly {
					bodies[i], err = monthlyBody(items[i].Engine, oc.Months)
				} else {
					bodies[i], err = oc.Bill.JSON()
				}
				if err != nil {
					return
				}
			}
			out = batchEnvelope(bodies)
		})
	case p.w.name == "optimize":
		var r serve.OptimizeRequest
		if do("serve.decode", func() { err = json.Unmarshal(body, &r) }); err != nil {
			return nil, err
		}
		l := load(r.Load)
		if err != nil {
			return nil, err
		}
		eng := engine(r.Contract)
		if err != nil {
			return nil, err
		}
		opts := optimize.Options{}
		if r.Search != nil {
			opts.Seed, opts.Candidates = r.Search.Seed, r.Search.Candidates
		}
		var res *optimize.Result
		do("optimize.search", func() {
			res, err = optimize.Optimize(ctx, eng, l, contract.BillingInput{}, r.Flexibility, opts)
		})
		if err != nil {
			return nil, err
		}
		do("contract.encode", func() { out, err = optimizeBody(res) })
	default:
		var r serve.BillRequest
		if do("serve.decode", func() { err = json.Unmarshal(body, &r) }); err != nil {
			return nil, err
		}
		l := load(r.Load)
		if err != nil {
			return nil, err
		}
		eng := engine(r.Contract)
		if err != nil {
			return nil, err
		}
		name := "contract.bill_walk"
		if eng.Columnar() {
			name = "contract.bill_columnar"
		}
		var bill *contract.Bill
		if do(name, func() { bill, err = eng.BillCtx(ctx, l, contract.BillingInput{}) }); err != nil {
			return nil, err
		}
		do("contract.encode", func() { out, err = bill.JSON() })
	}
	return out, err
}

// routeKey mirrors the router's routing decision: unmarshal the
// request envelope, parse and hash its spec, rank the backends.
func routeKey(backends []string, body []byte) ([]string, error) {
	var env struct {
		Contract json.RawMessage `json:"contract"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, err
	}
	spec, err := contract.ParseSpec(env.Contract)
	if err != nil {
		return nil, err
	}
	key, err := contract.HashSpec(spec)
	if err != nil {
		return nil, err
	}
	return route.Rank(backends, key), nil
}

// checksPerRequest is how many outputs one replayed request checks: the
// five ways and the routing key.
const checksPerRequest = 6

// replayer sends replayed requests the five ways.
type replayer struct {
	f  *fleet
	in *inputs
	o  *oracle
	p  *pipeline
	ck *checker
	tr *tracer
}

// one replays d as request req and returns its time per layer, in ms.
func (r *replayer) one(req int64, d descriptor) map[string]float64 {
	w := r.in.w
	body, want := r.in.body(d), r.o.expect(d)
	owner := route.Rank(r.f.urls, r.o.keys[d.spec])[0]
	backend := r.f.backends[slices.Index(r.f.urls, owner)]
	inProcess := func(h http.Handler) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, w.path, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}

	first := len(r.tr.spans)
	r.tr.do(req, 0, "client.request", func() {
		status, got, err := r.f.post(r.f.url+w.path, body)
		r.ck.check("client.request", status, got, want, err)
	})
	r.tr.do(req, 0, "route.handler", func() {
		status, got := inProcess(r.f.router.Handler())
		r.ck.check("route.handler", status, got, want, nil)
	})
	r.tr.do(req, 0, "serve.http", func() {
		status, got, err := r.f.post(owner+w.path, body)
		r.ck.check("serve.http", status, got, want, err)
	})
	r.tr.do(req, 0, "serve.handler", func() {
		status, got := inProcess(backend.Handler())
		r.ck.check("serve.handler", status, got, want, nil)
	})
	pid := r.tr.start(req, 0, "pipeline")
	got, err := r.p.run(r.tr, req, pid, body)
	r.tr.end(pid)
	r.ck.check("pipeline", http.StatusOK, got, want, err)

	var ranked []string
	r.tr.do(req, 0, "route.key", func() { ranked, err = routeKey(r.f.urls, body) })
	if err != nil || ranked[0] != owner {
		r.ck.fail("route.key", fmt.Sprintf("routed to %v, backend cache key owner is %s (err %v)", ranked, owner, err))
	}
	r.tr.do(req, 0, "contract.compile", func() {
		var spec *contract.Spec
		var c *contract.Contract
		if spec, err = contract.ParseSpec(r.in.specs[d.spec]); err != nil {
			return
		}
		if c, err = spec.Build(contract.BuildContext{}); err == nil {
			_, err = contract.NewEngine(c)
		}
	})
	if err != nil {
		r.ck.fail("contract.compile", err.Error())
	}
	return layerTimes(r.tr.spans[first:])
}

// layerTimes turns one request's spans into its time per layer, in ms.
func layerTimes(spans []span) map[string]float64 {
	dur := func(s span) float64 { return float64(s.End-s.Start) / 1e6 }
	root := make(map[string]float64)
	out := make(map[string]float64)
	var pipe span
	var children []span
	for _, s := range spans {
		switch {
		case s.Parent == 0:
			root[s.Name] = dur(s)
			if s.Name == "pipeline" {
				pipe = s
			}
		default:
			out[s.Name+"_ms"] += dur(s)
			if s.Parent == pipe.ID {
				children = append(children, s)
			}
		}
	}
	var childSum float64
	for _, c := range children {
		childSum += dur(c)
	}
	out["client.request_ms"] = root["client.request"]
	out["client.transport_ms"] = root["client.request"] - root["route.handler"]
	out["route.handler_ms"] = root["route.handler"]
	out["route.self_ms"] = root["route.handler"] - root["serve.http"]
	out["route.key_ms"] = root["route.key"]
	out["serve.http_ms"] = root["serve.http"]
	out["serve.transport_ms"] = root["serve.http"] - root["serve.handler"]
	out["serve.handler_ms"] = root["serve.handler"]
	out["serve.glue_ms"] = root["serve.handler"] - childSum
	out["pipeline.self_ms"] = float64(selfTime(pipe, children)) / 1e6
	out["contract.compile_ms"] = root["contract.compile"]
	out["load_ms"] = out["hpc.synthesize_ms"] + out["timeseries.new_power_ms"]
	out["evaluate_ms"] = out["contract.bill_columnar_ms"] + out["contract.bill_walk_ms"] +
		out["contract.bill_batch_ms"] + out["optimize.search_ms"]
	return out
}

// traced runs the replay for 85 % of the run's seconds, then spends the
// rest sending the same requests through the router untraced, one at a
// time, to measure what tracing costs.
func traced(f *fleet, in *inputs, o *oracle, ck *checker, cfg runConfig, res *runResult) error {
	r := &replayer{f: f, in: in, o: o, p: newPipeline(o), ck: ck, tr: &tracer{base: time.Now()}}
	st := in.stream()
	start := time.Now()
	replayEnd := start.Add(time.Duration(0.85 * cfg.seconds * float64(time.Second)))
	var ds []descriptor
	layers := make(map[string][]float64)
	before := readRuntime()
	for req := int64(1); req == 1 || time.Now().Before(replayEnd); req++ {
		d := st.next()
		ds = append(ds, d)
		for name, v := range r.one(req, d) {
			layers[name] = append(layers[name], v)
		}
	}
	after := readRuntime()
	res.Attempted += checksPerRequest * len(ds)

	end := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var plain []float64
	for _, d := range ds {
		if len(plain) > 0 && !time.Now().Before(end) {
			break
		}
		body := in.body(d)
		t0 := time.Now()
		status, got, err := f.post(f.url+in.w.path, body)
		plain = append(plain, float64(time.Since(t0))/1e6)
		ck.check("client.request (untraced)", status, got, o.expect(d), err)
	}
	res.Attempted += len(plain)

	m := res.Metrics
	calls := make(map[string]int)
	for _, s := range r.tr.spans {
		if s.Parent != 0 {
			calls[s.Name+"_ms"]++
		}
	}
	var total float64
	for _, v := range layers["client.request_ms"] {
		total += v
	}
	for name, vals := range layers {
		var sum float64
		for _, v := range vals {
			sum += v
		}
		sorted := slices.Clone(vals)
		sort.Float64s(sorted)
		m[name+".p50"] = percentile(sorted, 50)
		m[name+".p99"] = percentile(sorted, 99)
		m[name+".share"] = ratio(sum, total)
		m[name+".calls"] = float64(len(vals))
		if n := calls[name]; n > 0 {
			m[name+".calls"] = float64(n)
			m[name+".per_op"] = sum / float64(n)
		}
	}
	for _, s := range r.p.reg.Snapshot() {
		m["obs."+s.Name+"_ms.mean"] = 1e3 * s.Mean()
		m["obs."+s.Name+"_ms.calls"] = float64(s.Count)
	}
	tracedClient := slices.Clone(layers["client.request_ms"][:len(plain)])
	sort.Float64s(tracedClient)
	sort.Float64s(plain)
	m["trace.overhead_pct"] = 100 * (percentile(tracedClient, 50)/percentile(plain, 50) - 1)
	m["runtime.gc_cpu_share"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, r.tr); err != nil {
			return err
		}
	}
	return nil
}
