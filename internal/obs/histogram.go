package obs

// Histograms in the fixed-bucket, cumulative style Prometheus expects.
// A Histogram is a standalone latency distribution; a Registry is a
// lazily-populated map of named histograms sharing one bucket layout,
// used as the span sink (one histogram per span name) and rendered as
// one labelled family by Metrics.Histograms. Both are safe for
// concurrent use.

import (
	"sort"
	"strconv"
	"sync"
)

// DefaultLatencyBuckets are the span/request bucket upper bounds in
// seconds: the billing hot path is a ~3.4 ms year-bill, so the layout
// resolves sub-millisecond cache hits through multi-second monthly
// sweeps.
var DefaultLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram counts observations into fixed buckets. The zero value is
// not usable; construct with NewHistogram.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; the last bucket is +Inf
	sum    float64
	count  uint64
}

// NewHistogram builds a histogram with the given ascending upper
// bounds. No bounds selects DefaultLatencyBuckets.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Snapshot returns a consistent copy of the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds: h.bounds,
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64 // per-bucket (non-cumulative), last is +Inf
	Sum    float64
	Count  uint64
}

// Mean returns the average observed value, 0 with no observations.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-th quantile (0 < q <= 1) the way Prometheus
// histogram_quantile does: find the bucket the rank lands in and
// interpolate linearly between its bounds. Observations in the +Inf
// bucket clamp to the largest finite bound — the histogram cannot say
// more than "at least this". Returns 0 with no observations.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, ub := range s.Bounds {
		next := cum + float64(s.Counts[i])
		if next >= rank {
			lb := 0.0
			if i > 0 {
				lb = s.Bounds[i-1]
			}
			if s.Counts[i] == 0 {
				return ub
			}
			return lb + (ub-lb)*(rank-cum)/float64(s.Counts[i])
		}
		cum = next
	}
	// The rank lives in the +Inf bucket.
	if len(s.Bounds) == 0 {
		return 0
	}
	return s.Bounds[len(s.Bounds)-1]
}

// FormatBound renders a bucket bound the way Prometheus client
// libraries do: shortest decimal representation, no trailing zeros.
func FormatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Registry is a set of named histograms sharing one bucket layout —
// the sink Span records into. Names appear on first observation.
type Registry struct {
	mu     sync.Mutex
	bounds []float64
	spans  map[string]*Histogram
}

// NewRegistry builds a registry whose histograms use the given bounds
// (DefaultLatencyBuckets when empty).
func NewRegistry(bounds ...float64) *Registry {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	return &Registry{
		bounds: append([]float64(nil), bounds...),
		spans:  make(map[string]*Histogram),
	}
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	h, ok := r.spans[name]
	if !ok {
		h = NewHistogram(r.bounds...)
		r.spans[name] = h
	}
	r.mu.Unlock()
	return h
}

// Observe records one value into the named histogram.
func (r *Registry) Observe(name string, v float64) {
	r.Histogram(name).Observe(v)
}

// Snapshot returns every named histogram's snapshot, sorted by name.
func (r *Registry) Snapshot() []NamedSnapshot {
	r.mu.Lock()
	hists := make(map[string]*Histogram, len(r.spans))
	for name, h := range r.spans {
		hists[name] = h
	}
	r.mu.Unlock()

	out := make([]NamedSnapshot, 0, len(hists))
	for name, h := range hists {
		out = append(out, NamedSnapshot{Name: name, HistogramSnapshot: h.Snapshot()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NamedSnapshot pairs a span name with its histogram snapshot.
type NamedSnapshot struct {
	Name string
	HistogramSnapshot
}
