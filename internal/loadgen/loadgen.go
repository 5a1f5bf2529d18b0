// Package loadgen is a seeded, deterministic, open-loop load generator
// for scserved and scroute. Open-loop means arrivals follow a fixed
// schedule (request i fires at start + i/RPS) regardless of how fast
// the server answers — unlike a closed loop, which waits for each
// response and therefore throttles itself exactly when the server
// slows down, hiding the overload it was meant to measure. Under an
// open-loop at saturation the queue grows and the server must shed;
// that shed-not-collapse behavior is the thing the harness exists to
// observe.
//
// The request sequence (endpoint, contract spec, load profile) is
// drawn from a seeded PRNG, so two runs with the same seed replay the
// same work against different fleet shapes — the property the sharding
// acceptance comparison rests on. Wall-clock interleaving is of course
// not reproducible; the descriptor sequence is.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/contract"
	"repro/internal/obs"
)

// Config tunes one load run. The zero value of every field selects a
// usable default; Target is required.
type Config struct {
	// Target is the base URL to load (a scroute front or a bare
	// scserved backend).
	Target string
	// RPS is the open-loop arrival rate; <= 0 selects 50.
	RPS float64
	// Duration bounds the arrival schedule; <= 0 selects 10 s.
	Duration time.Duration
	// Seed drives the descriptor sequence; 0 selects 1.
	Seed int64
	// Specs is how many distinct synthetic contract specs the run
	// cycles through — the knob that sizes the fleet's working set
	// against the per-backend engine cache; <= 0 selects 16.
	Specs int
	// Profiles is the load mix, drawn uniformly; empty selects
	// quickstart-month. Names must be scserved named profiles.
	Profiles []string
	// BatchFraction of requests go to /v1/bill/batch (BatchItems
	// consecutive specs of the cycle × one load); the rest are single
	// /v1/bill calls.
	BatchFraction float64
	// BatchItems is the loads-per-batch size; <= 0 selects 8.
	BatchItems int
	// MaxInflight caps concurrent requests so a stalled server cannot
	// accumulate unbounded goroutines; arrivals past the cap are
	// counted as skipped, not sent. <= 0 selects 512.
	MaxInflight int
	// Client issues requests; nil selects a client with a 2 min
	// timeout (beyond any sane server deadline, so the server's own
	// 429/504 behavior is what gets measured, not client aborts).
	Client *http.Client
	// NDJSON, when set, receives one JSON line per finished request.
	NDJSON io.Writer
	// Events are scheduled control actions fired from the arrival loop
	// mid-run — the chaos harness uses them to flip proxy faults (kill
	// a backend at +4 s, restore it at +10 s) on the same clock the
	// load records use, so windowed assertions line up with the faults
	// that caused them.
	Events []ScheduledEvent
}

// ScheduledEvent is one control action on the run clock: an HTTP
// request sent when the arrival loop first passes At.
type ScheduledEvent struct {
	// At is the offset from run start.
	At time.Duration
	// Method defaults to POST when a Body is set, GET otherwise.
	Method string
	// URL is absolute (events usually target an admin API, not Target).
	URL string
	// Body is sent as JSON when non-empty.
	Body string
}

func (c Config) withDefaults() Config {
	if c.RPS <= 0 {
		c.RPS = 50
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Specs <= 0 {
		c.Specs = 16
	}
	if len(c.Profiles) == 0 {
		c.Profiles = []string{"quickstart-month"}
	}
	if c.BatchItems <= 0 {
		c.BatchItems = 8
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 512
	}
	if c.Client == nil {
		// A dedicated transport sized to the inflight cap: the default
		// transport keeps only 2 idle conns per host, which at load-test
		// rates churns a fresh TCP connection per request and exhausts
		// ephemeral ports long before the server is the bottleneck.
		c.Client = &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxIdleConns:        c.MaxInflight,
				MaxIdleConnsPerHost: c.MaxInflight,
			},
		}
	}
	return c
}

// descriptor is one scheduled request, fully determined by the seed.
type descriptor struct {
	seq      int
	endpoint string
	spec     int
	profile  string
}

// SpecBody returns the i-th synthetic contract spec as JSON. Specs are
// rate-perturbed variants of a realistic contract (fixed tariff,
// n-peak demand charge, powerband), so each hashes to a distinct
// engine-cache key while costing about the same to evaluate.
func SpecBody(i int) ([]byte, error) {
	spec := &contract.Spec{
		Name:          fmt.Sprintf("loadgen-site-%03d", i),
		Tariffs:       []contract.TariffSpec{{Type: "fixed", Rate: 0.05 + 0.0005*float64(i)}},
		DemandCharges: []contract.DemandChargeSpec{{PricePerKW: 10 + 0.1*float64(i), Method: "n-peak-average", NPeaks: 3}},
		Powerbands:    []contract.PowerbandSpec{{UpperKW: 18000, OverPenalty: 0.40}},
	}
	return json.Marshal(spec)
}

// record is one NDJSON output line.
type record struct {
	Seq       int     `json:"seq"`
	OffsetMS  float64 `json:"offset_ms"`
	Endpoint  string  `json:"endpoint"`
	Spec      int     `json:"spec"`
	Profile   string  `json:"profile"`
	Code      int     `json:"code"` // 0 = transport error
	LatencyMS float64 `json:"latency_ms"`
	// Origin labels 5xx responses with the layer that produced them,
	// from the router's X-SCRoute-Origin header: "router" for errors
	// scroute originated (no healthy backend, expired deadline),
	// "upstream" for backend failures it relayed. Empty off the 5xx
	// path or when loading a bare scserved with no router in front.
	Origin string `json:"origin,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Run executes one open-loop load run and reports what came back. It
// returns early (with the partial report) when ctx is canceled.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Target == "" {
		return nil, fmt.Errorf("loadgen: Target is required")
	}

	specs := make([][]byte, cfg.Specs)
	for i := range specs {
		raw, err := SpecBody(i)
		if err != nil {
			return nil, fmt.Errorf("loadgen: building spec %d: %w", i, err)
		}
		specs[i] = raw
	}

	rep := newReport(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))

	var (
		wg       sync.WaitGroup
		inflight atomic.Int64
		encMu    sync.Mutex
		enc      *json.Encoder
	)
	if cfg.NDJSON != nil {
		enc = json.NewEncoder(cfg.NDJSON)
	}

	events := append([]ScheduledEvent(nil), cfg.Events...)
	sort.Slice(events, func(i, j int) bool { return events[i].At < events[j].At })
	nextEvent := 0

	start := time.Now()
	interval := float64(time.Second) / cfg.RPS
	total := int(float64(cfg.Duration) / interval)
	// One pacing timer for the whole run: time.After per iteration
	// would arm a fresh timer per arrival that lives until it fires.
	// The initial 0-duration fire is drained immediately so every
	// Reset starts from an empty channel.
	pace := time.NewTimer(0)
	defer pace.Stop()
	<-pace.C
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if wait := time.Until(due); wait > 0 {
			pace.Reset(wait)
			select {
			case <-ctx.Done():
				if !pace.Stop() {
					<-pace.C
				}
				wg.Wait()
				return rep, nil
			case <-pace.C:
			}
		}

		// Fire control events that have come due on the run clock. They
		// run async so a slow admin API cannot skew the arrival schedule.
		for nextEvent < len(events) && time.Since(start) >= events[nextEvent].At {
			ev := events[nextEvent]
			nextEvent++
			wg.Add(1)
			go func() {
				defer wg.Done()
				fireEvent(ctx, cfg.Client, ev)
			}()
		}

		// Draw the descriptor unconditionally so the sequence stays
		// aligned with the seed even when an arrival is skipped.
		d := descriptor{
			seq:     i,
			spec:    rng.Intn(cfg.Specs),
			profile: cfg.Profiles[rng.Intn(len(cfg.Profiles))],
		}
		d.endpoint = "/v1/bill"
		if rng.Float64() < cfg.BatchFraction {
			d.endpoint = "/v1/bill/batch"
		}

		if inflight.Load() >= int64(cfg.MaxInflight) {
			rep.Skipped++
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			rec := fire(ctx, cfg, d, specs, start)
			rep.observe(d.endpoint, rec)
			if enc != nil {
				encMu.Lock()
				_ = enc.Encode(rec)
				encMu.Unlock()
			}
		}()
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)
	return rep, ctx.Err()
}

// fireEvent sends one scheduled control action.
func fireEvent(ctx context.Context, client *http.Client, ev ScheduledEvent) {
	method := ev.Method
	if method == "" {
		method = http.MethodGet
		if ev.Body != "" {
			method = http.MethodPost
		}
	}
	var body io.Reader
	if ev.Body != "" {
		body = bytes.NewReader([]byte(ev.Body))
	}
	req, err := http.NewRequestWithContext(ctx, method, ev.URL, body)
	if err != nil {
		return
	}
	if ev.Body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// fire sends one request and classifies the outcome.
func fire(ctx context.Context, cfg Config, d descriptor, specs [][]byte, start time.Time) record {
	rec := record{
		Seq:      d.seq,
		OffsetMS: float64(time.Since(start)) / float64(time.Millisecond),
		Endpoint: d.endpoint,
		Spec:     d.spec,
		Profile:  d.profile,
	}

	body, err := requestBody(d, specs, cfg.BatchItems)
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.Target+d.endpoint, bytes.NewReader(body))
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	req.Header.Set("Content-Type", "application/json")

	sent := time.Now()
	resp, err := cfg.Client.Do(req)
	rec.LatencyMS = float64(time.Since(sent)) / float64(time.Millisecond)
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rec.Code = resp.StatusCode
	if resp.StatusCode >= 500 {
		rec.Origin = resp.Header.Get(originHeader)
	}
	return rec
}

// originHeader mirrors route.OriginHeader: the router labels every 5xx
// it writes with the layer that produced it, which is what lets chaos
// assertions distinguish "the router gave up" from "a backend relayed
// its own failure".
const (
	originHeader = "X-SCRoute-Origin"
	originRouter = "router"
)

// requestBody renders the JSON body for one descriptor. A batch bills
// the descriptor's profile against batchItems consecutive specs of the
// cycle, starting at its own, so its items are distinct (spec, load)
// pairs whenever the cycle is that long: the backend bills a repeated
// pair once, and a batch of copies would cost about one bill.
func requestBody(d descriptor, specs [][]byte, batchItems int) ([]byte, error) {
	type loadSpec struct {
		Profile string `json:"profile"`
	}
	load := loadSpec{Profile: d.profile}
	if d.endpoint != "/v1/bill/batch" {
		return json.Marshal(struct {
			Contract json.RawMessage `json:"contract"`
			Load     loadSpec        `json:"load"`
		}{specs[d.spec], load})
	}
	contracts := make([]json.RawMessage, batchItems)
	for i := range contracts {
		contracts[i] = specs[(d.spec+i)%len(specs)]
	}
	return json.Marshal(struct {
		Contracts []json.RawMessage `json:"contracts"`
		Load      loadSpec          `json:"load"`
	}{contracts, load})
}

// EndpointStats aggregates one endpoint's outcomes.
type EndpointStats struct {
	Sent      uint64
	OK        uint64 // 2xx
	Shed      uint64 // 429
	ServerErr uint64 // 5xx, total of the origin split below
	// RouterErr counts 5xx the router originated (X-SCRoute-Origin:
	// router — no healthy backend, expired deadline); UpstreamErr
	// counts backend 5xx, relayed through the router or answered
	// directly by a bare scserved.
	RouterErr   uint64
	UpstreamErr uint64
	ClientErr   uint64 // other 4xx
	Transport   uint64 // no response at all

	admitted *obs.Histogram // latency of 2xx responses, seconds
	all      *obs.Histogram // latency of every response, seconds
}

// Admitted returns the latency distribution of 2xx responses.
func (e *EndpointStats) Admitted() obs.HistogramSnapshot { return e.admitted.Snapshot() }

// All returns the latency distribution across every response.
func (e *EndpointStats) All() obs.HistogramSnapshot { return e.all.Snapshot() }

// Report is the outcome of one Run.
type Report struct {
	Target   string
	Seed     int64
	RPS      float64
	Duration time.Duration
	Elapsed  time.Duration
	Skipped  uint64 // arrivals dropped by the MaxInflight cap

	mu        sync.Mutex
	endpoints map[string]*EndpointStats
	// samples keeps one (offset, outcome) tuple per finished request so
	// windowed assertions — "error rate after the ejection settles",
	// "zero 5xx post-failover" — can slice the run by its own clock.
	samples []sample
}

// sample is one finished request on the run clock.
type sample struct {
	offset  time.Duration
	code    int // 0 = transport error
	origin  string
	latency time.Duration
}

func newReport(cfg Config) *Report {
	return &Report{
		Target:    cfg.Target,
		Seed:      cfg.Seed,
		RPS:       cfg.RPS,
		Duration:  cfg.Duration,
		endpoints: make(map[string]*EndpointStats),
	}
}

func (r *Report) endpoint(name string) *EndpointStats {
	if e, ok := r.endpoints[name]; ok {
		return e
	}
	e := &EndpointStats{admitted: obs.NewHistogram(), all: obs.NewHistogram()}
	r.endpoints[name] = e
	return e
}

func (r *Report) observe(endpoint string, rec record) {
	secs := rec.LatencyMS / 1000
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, sample{
		offset:  time.Duration(rec.OffsetMS * float64(time.Millisecond)),
		code:    rec.Code,
		origin:  rec.Origin,
		latency: time.Duration(rec.LatencyMS * float64(time.Millisecond)),
	})
	e := r.endpoint(endpoint)
	e.Sent++
	switch {
	case rec.Code == 0:
		e.Transport++
		return
	case rec.Code >= 200 && rec.Code < 300:
		e.OK++
		e.admitted.Observe(secs)
	case rec.Code == http.StatusTooManyRequests:
		e.Shed++
	case rec.Code >= 500:
		e.ServerErr++
		if rec.Origin == originRouter {
			e.RouterErr++
		} else {
			e.UpstreamErr++
		}
	default:
		e.ClientErr++
	}
	e.all.Observe(secs)
}

// FailuresAfter counts client-visible failures (5xx or transport
// error) among requests that arrived at or after cutoff on the run
// clock, along with how many arrived in that window. Shed 429s are the
// admission layer working, not failing, and do not count.
func (r *Report) FailuresAfter(cutoff time.Duration) (failures, total uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.samples {
		if s.offset < cutoff {
			continue
		}
		total++
		if s.code == 0 || s.code >= 500 {
			failures++
		}
	}
	return failures, total
}

// ErrorRateAfter is the client-visible failure fraction among requests
// arriving at or after cutoff; 0 when nothing arrived in the window.
func (r *Report) ErrorRateAfter(cutoff time.Duration) float64 {
	failures, total := r.FailuresAfter(cutoff)
	if total == 0 {
		return 0
	}
	return float64(failures) / float64(total)
}

// Endpoints returns a snapshot copy of the per-endpoint stats.
func (r *Report) Endpoints() map[string]*EndpointStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*EndpointStats, len(r.endpoints))
	for k, v := range r.endpoints {
		out[k] = v
	}
	return out
}

// Totals sums counters across endpoints.
func (r *Report) Totals() (sent, ok, shed, serverErr, clientErr, transport uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.endpoints {
		sent += e.Sent
		ok += e.OK
		shed += e.Shed
		serverErr += e.ServerErr
		clientErr += e.ClientErr
		transport += e.Transport
	}
	return
}

// ErrOrigins splits the 5xx total by the layer that produced it.
func (r *Report) ErrOrigins() (routerErr, upstreamErr uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.endpoints {
		routerErr += e.RouterErr
		upstreamErr += e.UpstreamErr
	}
	return
}

// ShedFraction is the share of sent requests answered 429.
func (r *Report) ShedFraction() float64 {
	sent, _, shed, _, _, _ := r.Totals()
	if sent == 0 {
		return 0
	}
	return float64(shed) / float64(sent)
}

// AdmittedP99 is the p99 latency in seconds across every endpoint's
// admitted (2xx) responses.
func (r *Report) AdmittedP99() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total obs.HistogramSnapshot
	for _, e := range r.endpoints {
		s := e.admitted.Snapshot()
		if total.Counts == nil {
			total = s
			continue
		}
		for i := range total.Counts {
			total.Counts[i] += s.Counts[i]
		}
		total.Sum += s.Sum
		total.Count += s.Count
	}
	return total.Quantile(0.99)
}
