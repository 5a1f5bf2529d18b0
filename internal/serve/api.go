package serve

// Request/response shapes and handlers. The bill endpoint accepts the
// contract as a contract.Spec, the load inline (CSV or JSON samples) or
// as a named synthetic profile, and optional billing input (historical
// peak, declared emergencies). Single-period responses are exactly
// contract.Bill.JSON() — byte for byte what the in-process API
// produces — so CLI pipelines and the service are interchangeable.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/advisor"
	"repro/internal/contract"
	"repro/internal/feed"
	"repro/internal/hpc"
	"repro/internal/obs"
	"repro/internal/survey"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// Synthetic loads are bounded like inline ones, which
// wire.MaxBodyBytes caps at a few million samples: at most ten years,
// and at most 2^20 samples (about two years at one-minute resolution).
const (
	maxSyntheticDays    = 3660
	maxSyntheticSamples = 1 << 20
)

// defaultFlatFeedRate mirrors cmd/scbill: dynamic tariffs evaluated
// without market data get a flat reference feed at this price.
const defaultFlatFeedRate = 0.045

// LoadSpec selects the load profile for a request: exactly one of the
// fields must be set.
type LoadSpec struct {
	// CSV is an inline "timestamp,kw" profile (header optional).
	CSV string `json:"csv,omitempty"`
	// Series is an inline JSON profile.
	Series *SeriesSpec `json:"series,omitempty"`
	// Profile names a built-in synthetic profile (see NamedProfiles).
	Profile string `json:"profile,omitempty"`
	// Synthetic generates a profile from explicit parameters.
	Synthetic *SyntheticSpec `json:"synthetic,omitempty"`
}

// SeriesSpec is an inline load profile: a start instant, a fixed
// metering interval, and the kW samples.
type SeriesSpec struct {
	Start           time.Time `json:"start"`
	IntervalSeconds int       `json:"interval_seconds"`
	KW              []float64 `json:"kw"`
}

// SyntheticSpec parameterizes the synthetic facility-load generator,
// mirroring cmd/scbill's flags.
type SyntheticSpec struct {
	Start           time.Time `json:"start,omitempty"`
	Days            int       `json:"days,omitempty"`
	IntervalMinutes int       `json:"interval_minutes,omitempty"`
	BaseMW          float64   `json:"base_mw,omitempty"`
	PeakRatio       float64   `json:"peak_ratio,omitempty"`
	NoiseSigma      float64   `json:"noise_sigma,omitempty"`
	Seed            int64     `json:"seed,omitempty"`
}

// EventSpec is one declared grid emergency.
type EventSpec struct {
	Start           time.Time `json:"start"`
	DurationMinutes int       `json:"duration_minutes"`
}

// InputSpec is the optional billing input.
type InputSpec struct {
	HistoricalPeakKW float64     `json:"historical_peak_kw,omitempty"`
	Events           []EventSpec `json:"events,omitempty"`
}

// FeedSpec configures the price feed behind dynamic tariffs. Only flat
// reference feeds are supported over the wire; omitted means the
// default reference rate.
type FeedSpec struct {
	FlatRatePerKWh float64 `json:"flat_rate_per_kwh"`
}

// BillRequest is the POST /v1/bill body.
type BillRequest struct {
	Contract json.RawMessage `json:"contract"`
	Load     LoadSpec        `json:"load"`
	Input    *InputSpec      `json:"input,omitempty"`
	Feed     *FeedSpec       `json:"feed,omitempty"`
}

// AdviseCandidate is one candidate contract structure.
type AdviseCandidate struct {
	Name     string          `json:"name,omitempty"`
	Contract json.RawMessage `json:"contract"`
}

// AdviseRequest is the POST /v1/advise body.
type AdviseRequest struct {
	Current     string            `json:"current"`
	Candidates  []AdviseCandidate `json:"candidates"`
	Load        LoadSpec          `json:"load"`
	Input       *InputSpec        `json:"input,omitempty"`
	Feed        *FeedSpec         `json:"feed,omitempty"`
	Materiality float64           `json:"materiality,omitempty"`
}

// namedProfile is one built-in synthetic load: its generator
// parameters and the pool through which concurrent requests share its
// series. load puts a series straight back after taking it, so the
// pool holds read-only values and callers on one scheduler P all read
// the same *timeseries.PowerSeries. The pool keeps a series while
// requests use it; two garbage collections without one drop it, so an
// idle server retains no profile.
type namedProfile struct {
	cfg    hpc.LoadProfileConfig
	series sync.Pool // of *timeseries.PowerSeries
}

// load returns the profile's shared series, synthesizing it when the
// pool is empty.
func (p *namedProfile) load() (*timeseries.PowerSeries, error) {
	load, ok := p.series.Get().(*timeseries.PowerSeries)
	if !ok {
		var err error
		if load, err = hpc.SyntheticFacilityLoad(p.cfg); err != nil {
			return nil, err
		}
	}
	p.series.Put(load)
	return load, nil
}

// namedProfiles is the built-in synthetic load table, built once;
// namedProfileList is its sorted key list for error messages.
var (
	namedProfiles = func() map[string]*namedProfile {
		march := time.Date(2016, time.March, 1, 0, 0, 0, 0, time.UTC)
		january := time.Date(2016, time.January, 1, 0, 0, 0, 0, time.UTC)
		return map[string]*namedProfile{
			// The examples/quickstart month: steady 12 MW facility.
			"quickstart-month": {cfg: hpc.LoadProfileConfig{
				Start: march, Span: 30 * 24 * time.Hour, Interval: 15 * time.Minute,
				Base: 12 * units.Megawatt, PeakToAverage: 1.5, NoiseSigma: 0.02, Seed: 1,
			}},
			// A peakier month — the kitchen-sink golden-test load.
			"peaky-month": {cfg: hpc.LoadProfileConfig{
				Start: march, Span: 30 * 24 * time.Hour, Interval: 15 * time.Minute,
				Base: 12 * units.Megawatt, PeakToAverage: 1.8, NoiseSigma: 0.03, Seed: 21,
			}},
			// A full calendar year for monthly billing and ratchet studies.
			"year-in-life": {cfg: hpc.LoadProfileConfig{
				Start: january, Span: 365 * 24 * time.Hour, Interval: 15 * time.Minute,
				Base: 12 * units.Megawatt, PeakToAverage: 1.6, NoiseSigma: 0.02, Seed: 7,
			}},
		}
	}()
	namedProfileList = func() string {
		names := make([]string, 0, len(namedProfiles))
		for n := range namedProfiles {
			names = append(names, n)
		}
		sort.Strings(names)
		return strings.Join(names, ", ")
	}()
)

// NamedProfiles lists the built-in synthetic load profiles and their
// generator parameters. The map is a copy the caller may modify.
func NamedProfiles() map[string]hpc.LoadProfileConfig {
	out := make(map[string]hpc.LoadProfileConfig, len(namedProfiles))
	for n, p := range namedProfiles {
		out[n] = p.cfg
	}
	return out
}

// resolveLoad materializes the request's load profile.
func resolveLoad(ls LoadSpec) (*timeseries.PowerSeries, error) {
	set := 0
	for _, present := range []bool{ls.CSV != "", ls.Series != nil, ls.Profile != "", ls.Synthetic != nil} {
		if present {
			set++
		}
	}
	if set != 1 {
		return nil, errors.New("load: set exactly one of csv, series, profile, synthetic")
	}
	switch {
	case ls.CSV != "":
		return timeseries.ReadPowerCSV(strings.NewReader(ls.CSV))
	case ls.Series != nil:
		if ls.Series.IntervalSeconds <= 0 {
			return nil, errors.New("load.series: interval_seconds must be positive")
		}
		samples := make([]units.Power, len(ls.Series.KW))
		for i, v := range ls.Series.KW {
			samples[i] = units.Power(v)
		}
		return timeseries.NewPower(ls.Series.Start,
			time.Duration(ls.Series.IntervalSeconds)*time.Second, samples)
	case ls.Profile != "":
		p, ok := namedProfiles[ls.Profile]
		if !ok {
			return nil, fmt.Errorf("load.profile: unknown profile %q (have: %s)",
				ls.Profile, namedProfileList)
		}
		return p.load()
	default:
		return resolveSynthetic(*ls.Synthetic)
	}
}

func resolveSynthetic(sp SyntheticSpec) (*timeseries.PowerSeries, error) {
	cfg := hpc.LoadProfileConfig{
		Start:         sp.Start,
		Span:          time.Duration(sp.Days) * 24 * time.Hour,
		Interval:      time.Duration(sp.IntervalMinutes) * time.Minute,
		Base:          units.Power(sp.BaseMW) * units.Megawatt,
		PeakToAverage: sp.PeakRatio,
		NoiseSigma:    sp.NoiseSigma,
		Seed:          sp.Seed,
	}
	if cfg.Start.IsZero() {
		cfg.Start = time.Date(2016, time.March, 1, 0, 0, 0, 0, time.UTC)
	}
	if sp.Days == 0 {
		cfg.Span = 30 * 24 * time.Hour
	}
	if sp.IntervalMinutes == 0 {
		cfg.Interval = 15 * time.Minute
	}
	if sp.BaseMW == 0 {
		cfg.Base = 12 * units.Megawatt
	}
	if sp.PeakRatio == 0 {
		cfg.PeakToAverage = 1.5
	}
	if sp.Seed == 0 {
		cfg.Seed = 1
	}
	// Bound the series before the generator allocates it: a few bytes
	// of request must not buy gigabytes of samples.
	if sp.Days > maxSyntheticDays || (cfg.Interval > 0 && cfg.Span/cfg.Interval > maxSyntheticSamples) {
		return nil, fmt.Errorf("load.synthetic: at most %d days and %d samples", maxSyntheticDays, maxSyntheticSamples)
	}
	return hpc.SyntheticFacilityLoad(cfg)
}

func resolveInput(in *InputSpec) contract.BillingInput {
	if in == nil {
		return contract.BillingInput{}
	}
	out := contract.BillingInput{HistoricalPeak: units.Power(in.HistoricalPeakKW)}
	for _, ev := range in.Events {
		out.Events = append(out.Events, contract.EmergencyEvent{
			Start:    ev.Start,
			Duration: time.Duration(ev.DurationMinutes) * time.Minute,
		})
	}
	return out
}

// specNeedsFeed reports whether any tariff in the spec prices against a
// market feed — only then does the feed participate in the cache key.
func specNeedsFeed(spec *contract.Spec) bool {
	for _, t := range spec.Tariffs {
		if t.Type == "dynamic" {
			return true
		}
	}
	return false
}

// feedResolution records how a request's market prices were obtained —
// for response headers, the degraded body marking, and metrics. The
// zero value means "no server feed consulted" (static spec, explicit
// flat rate, or no feed configured).
type feedResolution struct {
	used   bool
	state  feed.State
	age    time.Duration
	reason string
}

func (fr feedResolution) degraded() bool { return fr.used && fr.state == feed.Degraded }

// worse keeps the more severe of two resolutions (degraded > stale >
// fresh > unused), for multi-engine requests like /v1/advise.
func (fr feedResolution) worse(other feedResolution) feedResolution {
	switch {
	case !other.used:
		return fr
	case !fr.used, other.state > fr.state:
		return other
	default:
		return fr
	}
}

// engineFor parses the raw contract spec, resolves the feed, and
// returns the compiled engine — from the LRU when the same spec (and,
// for dynamic tariffs, the same feed) was compiled before. The cache
// span covers the whole lookup (including any single-flight wait); the
// compile span covers only an actual build.
//
// Feed resolution, for specs with a dynamic tariff: an explicit
// feed.flat_rate_per_kwh in the request (or no configured PriceFeed)
// selects the flat reference feed, bit-for-bit the pre-feed behavior.
// Otherwise the configured feed answers fresh or stale — the engine is
// keyed on the feed version, so a refreshed feed recompiles and a
// stable one reuses the cache — and a degraded answer swaps the spec
// for its fixed-fallback form (Spec.FallbackSpec) so billing proceeds
// at the contract's declared backstop price instead of failing.
func (s *Server) engineFor(ctx context.Context, raw json.RawMessage, feedSpec *FeedSpec, load *timeseries.PowerSeries) (*contract.Engine, feedResolution, error) {
	ps, err := parseSpecRaw(raw)
	if err != nil {
		return nil, feedResolution{}, err
	}
	return s.engineForSpec(ctx, ps, feedSpec, load)
}

// parsedSpec is a contract spec parsed and content-hashed once, so
// batch requests re-billing the same spec against many loads pay the
// parse exactly once per distinct input.
type parsedSpec struct {
	spec *contract.Spec
	key  string
}

func parseSpecRaw(raw json.RawMessage) (parsedSpec, error) {
	if len(raw) == 0 {
		return parsedSpec{}, errors.New("contract: missing contract spec")
	}
	spec, err := contract.ParseSpec(raw)
	if err != nil {
		return parsedSpec{}, err
	}
	key, err := contract.HashSpec(spec)
	if err != nil {
		return parsedSpec{}, err
	}
	return parsedSpec{spec: spec, key: key}, nil
}

// engineForSpec is engineFor after spec parsing: feed resolution, cache
// lookup and (on a miss) the compile.
func (s *Server) engineForSpec(ctx context.Context, ps parsedSpec, feedSpec *FeedSpec, load *timeseries.PowerSeries) (*contract.Engine, feedResolution, error) {
	var res feedResolution
	spec, key := ps.spec, ps.key

	var prices *timeseries.PriceSeries
	var flat float64 // the flat reference feed's rate, when one is used
	switch {
	case !specNeedsFeed(spec):
		// Static specs never consult a feed; key and build match the
		// pre-feed fast path exactly.
	case s.cfg.PriceFeed == nil || (feedSpec != nil && feedSpec.FlatRatePerKWh > 0):
		// Flat reference feed, as cmd/scbill does. A dynamic tariff
		// clamps at its feed's edges, so one sample prices every
		// instant of any load alike: the engine depends on the rate
		// alone, and the feed is built on a miss only.
		flat = defaultFlatFeedRate
		if feedSpec != nil && feedSpec.FlatRatePerKWh > 0 {
			flat = feedSpec.FlatRatePerKWh
		}
		key = fmt.Sprintf("%s|flat:%g", key, flat)
	default:
		fr := s.cfg.PriceFeed.Prices(ctx, load.Start(), load.End())
		res = feedResolution{used: true, state: fr.State, age: fr.Age, reason: fr.Reason}
		if fr.State == feed.Degraded {
			spec = spec.FallbackSpec(s.cfg.FallbackRate)
			key = fmt.Sprintf("%s|fallback:%g", key, s.cfg.FallbackRate)
		} else {
			prices = fr.Series
			key = fmt.Sprintf("%s|feed:%d", key, fr.Version)
		}
	}

	defer obs.Span(ctx, stageCache)()
	eng, err := s.cache.get(key, func() (*contract.Engine, error) {
		defer obs.Span(ctx, stageCompile)()
		bc := contract.BuildContext{Feed: prices}
		if flat > 0 {
			bc.Feed = timeseries.ConstantPrice(load.Start(), time.Hour, 1, units.EnergyPrice(flat))
		}
		c, err := spec.Build(bc)
		if err != nil {
			return nil, err
		}
		return contract.NewEngine(c)
	})
	return eng, res, err
}

// noteFeed sets the feed-state response headers and counts stale and
// degraded answers. Must run before the response body is written.
func (s *Server) noteFeed(w http.ResponseWriter, fr feedResolution) {
	if !fr.used {
		return
	}
	w.Header().Set("X-SCBill-Feed", fr.state.String())
	switch fr.state {
	case feed.Stale:
		s.metrics.feedStale.Add(1)
		w.Header().Set("X-SCBill-Feed-Age", fr.age.Round(time.Second).String())
	case feed.Degraded:
		s.metrics.degraded.Add(1)
		w.Header().Set("X-SCBill-Degraded", fr.reason)
	}
}

// markDegraded splices "degraded": true and the reason into a rendered
// bill without re-marshalling, so non-degraded responses stay byte-
// identical to contract.Bill.JSON().
func markDegraded(data []byte, reason string) []byte {
	i := bytes.LastIndexByte(data, '}')
	if i < 0 {
		return data
	}
	reasonJSON, _ := json.Marshal(reason)
	var b bytes.Buffer
	b.Grow(len(data) + len(reasonJSON) + 64)
	b.Write(bytes.TrimRight(data[:i], " \t\n"))
	b.WriteString(",\n  \"degraded\": true,\n  \"degraded_reason\": ")
	b.Write(reasonJSON)
	b.WriteString("\n}")
	b.Write(data[i+1:])
	return b.Bytes()
}

func (s *Server) handleBill(w http.ResponseWriter, r *http.Request, body []byte) {
	var req BillRequest
	if !parseBody(w, body, &req) {
		return
	}
	load, err := resolveLoad(req.Load)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	eng, feedRes, err := s.engineFor(r.Context(), req.Contract, req.Feed, load)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.noteFeed(w, feedRes)
	in := resolveInput(req.Input)

	if hook := s.billHook; hook != nil {
		hook(r.Context())
	}

	// Rendered as one batch item: the same status mapping and bytes as
	// /v1/bill/batch, plus the trailing newline writeError and the
	// monthly body end in.
	monthly := r.URL.Query().Get("monthly") == "1"
	var out contract.BatchOutcome
	endEval := obs.Span(r.Context(), stageEvaluate)
	if monthly {
		out.Months, out.Err = eng.BillMonthsCtx(r.Context(), load, in, s.cfg.MonthWorkers)
	} else {
		out.Bill, out.Err = eng.BillCtx(r.Context(), load, in)
	}
	endEval()
	if out.Err == nil {
		defer obs.Span(r.Context(), stageEncode)()
	}
	res := s.encodeBatchItem(eng, out, feedRes, monthly)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
	if monthly || res.status != http.StatusOK {
		_, _ = w.Write([]byte("\n"))
	}
}

// monthlyBillBody renders the monthly-billing response object — the
// exact bytes /v1/bill?monthly=1 serves before its trailing newline,
// shared with the batch endpoint so per-item batch bodies stay
// byte-identical to sequential responses.
func monthlyBillBody(eng *contract.Engine, bills []*contract.Bill, fr feedResolution) ([]byte, error) {
	months := make([]json.RawMessage, len(bills))
	for i, b := range bills {
		data, err := b.JSON()
		if err != nil {
			return nil, err
		}
		months[i] = data
	}
	return json.MarshalIndent(struct {
		Contract       string            `json:"contract"`
		Months         []json.RawMessage `json:"months"`
		GrandTotal     float64           `json:"grand_total"`
		Degraded       bool              `json:"degraded,omitempty"`
		DegradedReason string            `json:"degraded_reason,omitempty"`
	}{eng.Contract().Name, months, contract.TotalOf(bills).Float(),
		fr.degraded(), degradedReason(fr)}, "", "  ")
}

// degradedReason returns the reason only for degraded resolutions, so
// omitempty drops the field from healthy responses.
func degradedReason(fr feedResolution) string {
	if fr.degraded() {
		return fr.reason
	}
	return ""
}

func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request, body []byte) {
	var req AdviseRequest
	if !parseBody(w, body, &req) {
		return
	}
	if len(req.Candidates) == 0 {
		writeError(w, http.StatusBadRequest, "advise: no candidates")
		return
	}
	load, err := resolveLoad(req.Load)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var feedRes feedResolution
	candidates := make([]advisor.EngineCandidate, 0, len(req.Candidates))
	for i, c := range req.Candidates {
		eng, fr, err := s.engineFor(r.Context(), c.Contract, req.Feed, load)
		if err != nil {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("advise: candidate %d: %v", i, err))
			return
		}
		feedRes = feedRes.worse(fr)
		name := c.Name
		if name == "" {
			name = eng.Contract().Name
		}
		candidates = append(candidates, advisor.EngineCandidate{Name: name, Engine: eng})
	}
	s.noteFeed(w, feedRes)
	endEval := obs.Span(r.Context(), stageEvaluate)
	advice, ranked, err := advisor.AdviseEngines(r.Context(), req.Current, candidates,
		load, resolveInput(req.Input), units.MoneyFromFloat(req.Materiality))
	endEval()
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			writeEvalError(w, err)
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	type rankedJSON struct {
		Name        string  `json:"name"`
		Annual      float64 `json:"annual"`
		DeltaVsBest float64 `json:"delta_vs_best"`
	}
	out := struct {
		Ranking           []rankedJSON `json:"ranking"`
		Current           string       `json:"current"`
		Best              string       `json:"best"`
		AnnualSaving      float64      `json:"annual_saving"`
		ShouldRenegotiate bool         `json:"should_renegotiate"`
		Advice            string       `json:"advice"`
	}{
		Current:           advice.Current.Candidate.Name,
		Best:              advice.Best.Candidate.Name,
		AnnualSaving:      advice.AnnualSaving.Float(),
		ShouldRenegotiate: advice.ShouldRenegotiate,
		Advice:            advice.String(),
	}
	for _, sc := range ranked {
		out.Ranking = append(out.Ranking, rankedJSON{
			Name: sc.Candidate.Name, Annual: sc.Annual.Float(), DeltaVsBest: sc.DeltaVsBest.Float(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSurveyRoster(w http.ResponseWriter, _ *http.Request) {
	type entry struct {
		Name    string `json:"name"`
		Country string `json:"country"`
		Region  string `json:"region"`
	}
	var out []entry
	for _, e := range survey.Roster() {
		out = append(out, entry{e.Name, e.Country, e.Region.String()})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSurveyRecords(w http.ResponseWriter, _ *http.Request) {
	type record struct {
		ID                 int      `json:"id"`
		Components         []string `json:"components"`
		RNP                string   `json:"rnp"`
		CommunicatesSwings bool     `json:"communicates_swings"`
		SwingsByContract   bool     `json:"swings_by_contract"`
	}
	var out []record
	for _, site := range survey.Records() {
		rec := record{
			ID:                 site.ID,
			RNP:                site.RNP.String(),
			CommunicatesSwings: site.CommunicatesSwings,
			SwingsByContract:   site.SwingsByContract,
		}
		for _, comp := range site.Profile.Components() {
			rec.Components = append(rec.Components, comp.String())
		}
		out = append(out, rec)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSurveyTypology(w http.ResponseWriter, _ *http.Request) {
	matrix, err := survey.MatrixCounts()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	discrepancies, err := survey.Discrepancies()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	type discJSON struct {
		Component string `json:"component"`
		Text      int    `json:"text"`
		Matrix    int    `json:"matrix"`
	}
	out := struct {
		Figure1       *typologyJSON  `json:"figure1"`
		MatrixCounts  map[string]int `json:"matrix_counts"`
		TextClaims    map[string]int `json:"text_claims"`
		RNP           map[string]int `json:"rnp"`
		Sites         int            `json:"sites"`
		Discrepancies []discJSON     `json:"discrepancies"`
	}{
		Figure1:      typologyTree(contract.Typology()),
		MatrixCounts: componentCounts(matrix.Component),
		TextClaims:   componentCounts(survey.TextClaims().Component),
		RNP:          rnpCounts(matrix.RNP),
		Sites:        matrix.Sites,
	}
	for _, d := range discrepancies {
		out.Discrepancies = append(out.Discrepancies, discJSON{
			Component: d.Component.String(), Text: d.Text, Matrix: d.Matrix,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

type typologyJSON struct {
	Title      string          `json:"title"`
	Detail     string          `json:"detail,omitempty"`
	Component  string          `json:"component,omitempty"`
	Encourages string          `json:"encourages,omitempty"`
	Children   []*typologyJSON `json:"children,omitempty"`
}

func typologyTree(n *contract.TypologyNode) *typologyJSON {
	out := &typologyJSON{
		Title:      n.Title,
		Detail:     n.Detail,
		Encourages: n.Encourages,
	}
	if n.Component >= 0 {
		out.Component = n.Component.String()
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, typologyTree(c))
	}
	return out
}

func componentCounts(m map[contract.Component]int) map[string]int {
	out := make(map[string]int, len(m))
	for c, n := range m {
		out[c.String()] = n
	}
	return out
}

func rnpCounts(m map[survey.RNP]int) map[string]int {
	out := make(map[string]int, len(m))
	for r, n := range m {
		out[r.String()] = n
	}
	return out
}

// handleHealthz is the liveness probe: 200 for as long as the process
// can serve HTTP at all, draining included. Restart decisions belong to
// a dead process, not a graceful drain — that distinction is /readyz's.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		Inflight      int     `json:"inflight"`
	}{status, time.Since(s.started).Seconds(), s.Inflight()})
}

// handleReadyz is the readiness probe: it flips to 503 the moment
// Shutdown begins, so load balancers stop routing new work while the
// in-flight requests drain behind a still-live /healthz.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	status, code := "ready", http.StatusOK
	if s.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, struct {
		Status   string `json:"status"`
		Inflight int    `json:"inflight"`
	}{status, s.Inflight()})
}

// writeEvalError writes the evalError mapping of err.
func writeEvalError(w http.ResponseWriter, err error) {
	code, msg := evalError(err)
	writeError(w, code, msg)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(data)
	_, _ = w.Write([]byte("\n"))
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{msg})
}
