package obs

import (
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func scrape(m *Metrics) string {
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}

// TestRegistrationRules: the naming rules fail at registration, not at
// scrape time. The failing names are the metricname analyzer's former
// # TYPE-suffix and WriteProm fixtures.
func TestRegistrationRules(t *testing.T) {
	for _, tc := range []struct {
		name     string
		register func(m *Metrics)
		panics   string // "" when registration must succeed
	}{
		{"counter", func(m *Metrics) { m.Counter("scroute_hedges_total", "") }, ""},
		{"gauge", func(m *Metrics) { m.GaugeFunc("scserved_in_flight", "", nil) }, ""},
		{"float gauge", func(m *Metrics) { m.FloatGaugeFunc("scroute_retry_budget_tokens", "", nil) }, ""},
		{"seconds histogram", func(m *Metrics) { m.Histogram("scserved_request_seconds", "") }, ""},
		{"bytes histograms", func(m *Metrics) { m.Histograms("scserved_payload_bytes", "", "path", NewRegistry()) }, ""},
		{"counter without _total", func(m *Metrics) { m.Counter("scserved_requests", "") }, `counter "scserved_requests" must end in _total`},
		{"router counter without _total", func(m *Metrics) { m.Counter("scroute_hedges", "") }, `counter "scroute_hedges" must end in _total`},
		{"labelled counter without _total", func(m *Metrics) { m.CounterVec("scroute_requests", "", "path", "code") }, "must end in _total"},
		{"deadline counter without _total", func(m *Metrics) { m.Counter("scroute_deadline_expired", "") }, "must end in _total"},
		{"counter func without _total", func(m *Metrics) { m.CounterFunc("scroute_retry_budget_exhausted", "", nil) }, "must end in _total"},
		{"gauge with _total", func(m *Metrics) { m.GaugeFunc("scserved_active_total", "", nil) }, `gauge "scserved_active_total" must not end in _total`},
		{"labelled gauge with _total", func(m *Metrics) { m.Func(GaugeKind, "scroute_healthy_total", "", []string{"backend"}, nil) }, "must not end in _total"},
		{"float gauge with _total", func(m *Metrics) { m.FloatGaugeFunc("scroute_retry_budget_tokens_total", "", nil) }, "must not end in _total"},
		{"histogram without unit", func(m *Metrics) { m.Histogram("scserved_latency", "") }, `histogram "scserved_latency" must end in _seconds or _bytes`},
		{"histograms without unit", func(m *Metrics) { m.Histograms("scroute_upstream", "", "stage", NewRegistry()) }, "must end in _seconds or _bytes"},
		{"uppercase name", func(m *Metrics) { m.Counter("scserved_BadName_total", "") }, "not lowercase snake case"},
		{"digit in name", func(m *Metrics) { m.Counter("scserved_http_5xx_total", "") }, "not lowercase snake case"},
		{"bad label", func(m *Metrics) { m.CounterVec("scserved_requests_total", "", "Path") }, `label "Path"`},
		{"le label", func(m *Metrics) { m.Histograms("scserved_request_seconds", "", "le", NewRegistry()) }, `label "le"`},
		{"duplicate family", func(m *Metrics) {
			m.Counter("scserved_shed_total", "")
			m.CounterFunc("scserved_shed_total", "", nil)
		}, `"scserved_shed_total" registered twice`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got string
			func() {
				defer func() {
					if v := recover(); v != nil {
						got, _ = v.(string)
						if got == "" {
							got = "non-string panic"
						}
					}
				}()
				tc.register(NewMetrics())
			}()
			switch {
			case tc.panics == "" && got != "":
				t.Errorf("registration panicked: %s", got)
			case tc.panics != "" && !strings.Contains(got, tc.panics):
				t.Errorf("panic = %q, want it to contain %q", got, tc.panics)
			}
		})
	}
}

// TestRenderWellFormed renders one family of each kind and checks the
// page against the text exposition format: HELP and TYPE once per
// family, before its samples; no repeated series; histogram buckets
// ascending and cumulative, with +Inf equal to _count; label values
// escaped; families without samples omitted.
func TestRenderWellFormed(t *testing.T) {
	m := NewMetrics()
	m.Counter("t_events_total", "Events.").Add(3)
	reqs := m.CounterVec("t_requests_total", "Requests, by path and code.", "path", "code")
	reqs.With("/b", "200").Add(1)
	reqs.With("/a", "500").Add(1)
	reqs.With("/a", "200").Add(2)
	reqs.With("q\"uote\\back\nline", "200").Add(1)
	m.CounterVec("t_empty_total", "Never used.", "path")
	m.Func(GaugeKind, "t_pending", "Pending, by class.", []string{"class"}, func(emit Emit) { emit(-2, "single") })
	m.GaugeFunc("t_slots", "Slots.", func() int64 { return 4 })
	m.FloatGaugeFunc("t_tokens", "Tokens.", func() float64 { return 2.5 })
	m.Func(FloatGaugeKind, "t_absent_seconds", "Never reported.", nil, func(Emit) {})
	m.Func(CounterKind, "t_answers_total", "Answers, by state.", []string{"state"}, func(emit Emit) {
		emit(5, "fresh")
		emit(1, "degraded")
	})
	lat := m.Histogram("t_request_seconds", "Latency.")
	for _, v := range []float64{0.0001, 0.003, 0.003, 7, 100} {
		lat.Observe(v)
	}
	reg := NewRegistry()
	reg.Observe("compile", 0.01)
	reg.Observe("cache", 0.0001)
	m.Histograms("t_stage_seconds", "Stages.", "stage", reg)

	page := scrape(m)
	for _, want := range []string{
		"t_events_total 3\n",
		`t_requests_total{path="q\"uote\\back\nline",code="200"} 1` + "\n",
		"t_pending{class=\"single\"} -2\n",
		"t_tokens 2.5\n",
		`t_answers_total{state="fresh"} 5` + "\n" + `t_answers_total{state="degraded"} 1` + "\n",
		"t_request_seconds_count 5\n",
		`t_stage_seconds_count{stage="compile"} 1` + "\n",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q:\n%s", want, page)
		}
	}
	for _, absent := range []string{"t_empty_total", "t_absent_seconds"} {
		if strings.Contains(page, absent) {
			t.Errorf("empty family %s rendered:\n%s", absent, page)
		}
	}
	if i, j := strings.Index(page, `path="/a",code="200"`), strings.Index(page, `path="/b",code="200"`); i < 0 || j < i {
		t.Errorf("labelled series not sorted by label values:\n%s", page)
	}

	var (
		current, kind string
		seenHelp      = map[string]bool{}
		seenType      = map[string]bool{}
		seenSeries    = map[string]bool{}
		lastLE        = map[string]float64{}
		lastCum       = map[string]float64{}
		infCount      = map[string]float64{}
	)
	for _, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			if seenHelp[name] {
				t.Errorf("HELP for %s repeated", name)
			}
			seenHelp[name], current = true, name
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, k, _ := strings.Cut(rest, " ")
			if seenType[name] || name != current {
				t.Errorf("TYPE for %s repeated or not right after its HELP", name)
			}
			seenType[name], kind = true, k
			continue
		}
		series, value, ok := cutLast(line, " ")
		v, err := strconv.ParseFloat(value, 64)
		if !ok || err != nil {
			t.Fatalf("malformed sample line %q", line)
		}
		if seenSeries[series] {
			t.Errorf("series %s repeated", series)
		}
		seenSeries[series] = true
		name, labels, _ := strings.Cut(series, "{")
		base := name
		if kind == "histogram" {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				base = strings.TrimSuffix(base, suffix)
			}
		}
		if base != current {
			t.Errorf("sample %q outside its family's header (current family %s)", line, current)
		}
		if kind != "histogram" {
			continue
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			inner, le, _ := cutLast(strings.TrimSuffix(labels, `"}`), `le="`)
			key := base + "{" + inner
			bound := math.Inf(1)
			if le != "+Inf" {
				bound, _ = strconv.ParseFloat(le, 64)
			}
			if prev, ok := lastLE[key]; ok && bound <= prev {
				t.Errorf("%s: le %s does not ascend", key, le)
			}
			if v < lastCum[key] {
				t.Errorf("%s: cumulative count falls to %g at le %s", key, v, le)
			}
			lastLE[key], lastCum[key] = bound, v
			if math.IsInf(bound, 1) {
				infCount[key] = v
			}
		case strings.HasSuffix(name, "_count"):
			key := base + "{"
			if inner := strings.TrimSuffix(labels, "}"); inner != "" {
				key += inner + ","
			}
			if got, ok := infCount[key]; !ok || got != v {
				t.Errorf("%s: +Inf bucket %g, _count %g", series, got, v)
			}
		}
	}
}

// cutLast splits s around the last instance of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	if i := strings.LastIndex(s, sep); i >= 0 {
		return s[:i], s[i+len(sep):], true
	}
	return s, "", false
}

// TestVecWithDoesNotAllocate: incrementing an existing labelled series
// is on both daemons' request paths and must not allocate.
func TestVecWithDoesNotAllocate(t *testing.T) {
	reqs := NewMetrics().CounterVec("t_requests_total", "", "path", "code")
	path, code := "/v1/bill", 200
	reqs.With(path, CodeLabel(code)).Add(1)
	if n := testing.AllocsPerRun(100, func() { reqs.With(path, CodeLabel(code)).Add(1) }); n != 0 {
		t.Errorf("With+Inc allocates %g times per call", n)
	}
}

func TestCodeLabel(t *testing.T) {
	for _, code := range []int{0, 99, 100, 200, 404, 499, 599, 600, 1000} {
		if got, want := CodeLabel(code), strconv.Itoa(code); got != want {
			t.Errorf("CodeLabel(%d) = %q, want %q", code, got, want)
		}
	}
}
