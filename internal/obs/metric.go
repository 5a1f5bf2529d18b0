package obs

// One metric set and one renderer for both daemons' /metrics pages:
// families render in registration order, and a family with no samples
// is omitted, header included.

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count, safe for
// concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Add adds n to the counter.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Kind is the exposition type of a family read at scrape time.
type Kind int

// The scrape-time family kinds. Counters and integer gauges print as
// integers, float gauges with %g.
const (
	CounterKind Kind = iota
	GaugeKind
	FloatGaugeKind
	histogramKind
)

// Emit reports one sample of a scrape-time family: its value and one
// label value per declared label.
type Emit func(v float64, labelValues ...string)

// Metrics is a set of metric families rendered together as one
// /metrics page; it is itself the page's http.Handler. Register every
// family before the first scrape. Registration checks the family's
// name and panics on a violation, so a misnamed series fails when the
// daemon is built, not when it is scraped:
//
//   - names and labels are lowercase snake case;
//   - counters end in _total, gauges do not;
//   - histograms end in _seconds or _bytes;
//   - no family is registered twice.
type Metrics struct {
	families []*family
}

// family is one registered metric family. collect reports its samples
// in render order.
type family struct {
	name, help string
	kind       Kind
	labels     []string
	collect    func(add func(sample))
}

// sample is one series of a family: label values plus a scalar value
// or, for histograms, a snapshot.
type sample struct {
	values []string
	v      float64
	h      HistogramSnapshot
}

// NewMetrics returns an empty set.
func NewMetrics() *Metrics { return &Metrics{} }

// snakeCase reports whether s is lowercase words joined by single
// underscores.
func snakeCase(s string) bool {
	for _, word := range strings.Split(s, "_") {
		if word == "" || strings.Trim(word, "abcdefghijklmnopqrstuvwxyz") != "" {
			return false
		}
	}
	return true
}

func (m *Metrics) register(kind Kind, name, help string, labels []string, collect func(add func(sample))) {
	if !snakeCase(name) {
		panic(fmt.Sprintf("obs: metric name %q is not lowercase snake case", name))
	}
	total := strings.HasSuffix(name, "_total")
	switch {
	case kind == CounterKind && !total:
		panic(fmt.Sprintf("obs: counter %q must end in _total", name))
	case (kind == GaugeKind || kind == FloatGaugeKind) && total:
		panic(fmt.Sprintf("obs: gauge %q must not end in _total", name))
	case kind == histogramKind && !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes"):
		panic(fmt.Sprintf("obs: histogram %q must end in _seconds or _bytes", name))
	}
	for _, f := range m.families {
		if f.name == name {
			panic(fmt.Sprintf("obs: metric family %q registered twice", name))
		}
	}
	for _, l := range labels {
		if !snakeCase(l) || l == "le" {
			panic(fmt.Sprintf("obs: label %q of %q is not a lowercase snake-case name other than le", l, name))
		}
	}
	m.families = append(m.families, &family{name: name, help: help, kind: kind, labels: labels, collect: collect})
}

// Counter registers an unlabelled counter.
func (m *Metrics) Counter(name, help string) *Counter {
	c := new(Counter)
	m.register(CounterKind, name, help, nil, func(add func(sample)) {
		add(sample{v: float64(c.Value())})
	})
	return c
}

// Histogram registers an unlabelled histogram with
// DefaultLatencyBuckets.
func (m *Metrics) Histogram(name, help string) *Histogram {
	h := NewHistogram()
	m.register(histogramKind, name, help, nil, func(add func(sample)) {
		add(sample{h: h.Snapshot()})
	})
	return h
}

// CounterVec registers a counter labelled by the given label names.
func (m *Metrics) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{labels: labels, series: make(map[string]*vecSeries)}
	m.register(CounterKind, name, help, labels, v.collect)
	return v
}

// Histograms registers a histogram registry as one family: one series
// per histogram name, which becomes the value of label.
func (m *Metrics) Histograms(name, help, label string, r *Registry) {
	m.register(histogramKind, name, help, []string{label}, func(add func(sample)) {
		for _, s := range r.Snapshot() {
			add(sample{values: []string{s.Name}, h: s.HistogramSnapshot})
		}
	})
}

// Func registers a family whose samples f reports at scrape time, in
// the order they render; a scrape where f emits nothing omits the
// family. labels names the label values each Emit carries.
func (m *Metrics) Func(kind Kind, name, help string, labels []string, f func(Emit)) {
	m.register(kind, name, help, labels, func(add func(sample)) {
		f(func(v float64, values ...string) { add(sample{values: values, v: v}) })
	})
}

// CounterFunc registers an unlabelled counter read from f at scrape
// time.
func (m *Metrics) CounterFunc(name, help string, f func() uint64) {
	m.Func(CounterKind, name, help, nil, func(emit Emit) { emit(float64(f())) })
}

// GaugeFunc registers an unlabelled integer gauge read from f at
// scrape time.
func (m *Metrics) GaugeFunc(name, help string, f func() int64) {
	m.Func(GaugeKind, name, help, nil, func(emit Emit) { emit(float64(f())) })
}

// FloatGaugeFunc registers an unlabelled float gauge read from f at
// scrape time.
func (m *Metrics) FloatGaugeFunc(name, help string, f func() float64) {
	m.Func(FloatGaugeKind, name, help, nil, func(emit Emit) { emit(f()) })
}

// CounterVec is a counter family keyed by label values. A series
// appears on its first With and stays. Series render sorted by their
// label values compared as one string, joined by 0xff.
type CounterVec struct {
	labels []string
	mu     sync.RWMutex
	series map[string]*vecSeries
}

type vecSeries struct {
	key    string
	values []string
	c      Counter
}

// With returns the counter for the given label values, one per label,
// creating it on first use. Looking up an existing series does not
// allocate.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %d label values for labels %v", len(values), v.labels))
	}
	var buf [128]byte
	key := buf[:0]
	for i, s := range values {
		if i > 0 {
			key = append(key, 0xff)
		}
		key = append(key, s...)
	}
	v.mu.RLock()
	s := v.series[string(key)]
	v.mu.RUnlock()
	if s != nil {
		return &s.c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if s = v.series[string(key)]; s == nil {
		s = &vecSeries{key: string(key), values: append([]string(nil), values...)}
		v.series[s.key] = s
	}
	return &s.c
}

// collect reports every series in key order.
func (v *CounterVec) collect(add func(sample)) {
	v.mu.RLock()
	series := make([]*vecSeries, 0, len(v.series))
	for _, s := range v.series {
		series = append(series, s)
	}
	v.mu.RUnlock()
	sort.Slice(series, func(i, j int) bool { return series[i].key < series[j].key })
	for _, s := range series {
		add(sample{values: s.values, v: float64(s.c.Value())})
	}
}

// codeDigits is "100101102…599": every HTTP status code's label is a
// slice of it, so a code label costs no allocation on the request path.
var codeDigits = func() string {
	var b []byte
	for code := 100; code < 600; code++ {
		b = strconv.AppendInt(b, int64(code), 10)
	}
	return string(b)
}()

// CodeLabel returns an HTTP status code as a label value.
func CodeLabel(code int) string {
	if code < 100 || code >= 600 {
		return strconv.Itoa(code)
	}
	i := 3 * (code - 100)
	return codeDigits[i : i+3]
}

// ServeHTTP renders the page.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(m.render())
}

var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

// kindNames are the TYPE words, by Kind.
var kindNames = [...]string{CounterKind: "counter", GaugeKind: "gauge", FloatGaugeKind: "gauge", histogramKind: "histogram"}

// render writes every family with at least one sample.
func (m *Metrics) render() []byte {
	var b []byte
	for _, f := range m.families {
		var samples []sample
		f.collect(func(s sample) { samples = append(samples, s) })
		if len(samples) == 0 {
			continue
		}
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, helpEscaper.Replace(f.help), f.name, kindNames[f.kind])
		for _, s := range samples {
			var labels []string
			for i, l := range f.labels {
				labels = append(labels, l+`="`+labelEscaper.Replace(s.values[i])+`"`)
			}
			switch f.kind {
			case histogramKind:
				b = appendHistogram(b, f.name, labels, s.h)
			case FloatGaugeKind:
				b = fmt.Appendf(b, "%s%s %g\n", f.name, braces(labels), s.v)
			default:
				b = fmt.Appendf(b, "%s%s %s\n", f.name, braces(labels), strconv.FormatFloat(s.v, 'f', -1, 64))
			}
		}
	}
	return b
}

// appendHistogram writes one histogram series: cumulative _bucket
// lines ending in +Inf, then _sum and _count.
func appendHistogram(b []byte, name string, labels []string, h HistogramSnapshot) []byte {
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		le := "+Inf"
		if i < len(h.Bounds) {
			le = FormatBound(h.Bounds[i])
		}
		b = fmt.Appendf(b, "%s_bucket%s %d\n", name, braces(append(labels[:len(labels):len(labels)], `le="`+le+`"`)), cum)
	}
	return fmt.Appendf(b, "%s_sum%s %g\n%s_count%s %d\n", name, braces(labels), h.Sum, name, braces(labels), h.Count)
}

// braces renders a label list, empty when there are no labels.
func braces(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	return "{" + strings.Join(labels, ",") + "}"
}
