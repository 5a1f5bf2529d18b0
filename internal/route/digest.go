package route

// digest is a small decaying latency record per backend: a fixed ring
// of the most recent forward latencies, quantiled on demand. The ring
// overwrite is the decay — a backend that was slow an hour ago but has
// answered 256 requests since carries no trace of it — which is what
// the hedge-delay estimate wants: "how slow is this backend right
// now", not "ever". It is fed from the same observation point as the
// scroute_upstream_seconds histogram, so the hedge math and the
// exported latency picture can never disagree about what was measured.

import (
	"sort"
	"sync"
)

// digestSize is the ring capacity. 256 samples give a stable p95 (the
// 12th-largest sample) while decaying within seconds at fleet rates.
const digestSize = 256

type digest struct {
	mu      sync.Mutex
	samples [digestSize]float64
	next    int
	filled  int
}

// Observe records one latency in seconds.
func (d *digest) Observe(seconds float64) {
	d.mu.Lock()
	d.samples[d.next] = seconds
	d.next = (d.next + 1) % digestSize
	if d.filled < digestSize {
		d.filled++
	}
	d.mu.Unlock()
}

// Quantile returns the q-th quantile (0 < q <= 1) of the retained
// samples in seconds, or 0 with no samples yet — callers floor the
// result with their own minimum hedge delay.
func (d *digest) Quantile(q float64) float64 {
	var buf [digestSize]float64 // on the stack: sorting it does not escape
	d.mu.Lock()
	n := copy(buf[:], d.samples[:d.filled])
	d.mu.Unlock()
	if n == 0 {
		return 0
	}
	sort.Float64s(buf[:n])
	idx := int(q*float64(n)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return buf[idx]
}
