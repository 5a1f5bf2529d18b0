package main

// Load generators. The open loop sends on a fixed schedule whatever the
// fleet does, as independent users would, and times each request from
// when it was due, so a stall also counts against the requests queued
// behind it. The closed loop is callers that each wait for their reply.

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request's outcome. In the closed loop lat runs from the
// send and lag is zero. In the open loop a request that found its
// sender busy at its due time is timed from the due time, and lag is
// how long it waited for the sender; a request whose sender was free is
// timed from its send. A sender sleeping until a due time wakes up to a
// millisecond late, as an idle Go scheduler waits on a millisecond
// timer, and that oversleep belongs to the generator, not the fleet.
type sample struct {
	lat, lag time.Duration
	ok       bool
}

type clock interface {
	Now() time.Time
	SleepUntil(time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// openLoop sends n requests, request i due at start + i×interval, over
// conns concurrent senders: a request whose due time finds every sender
// busy waits, and that wait counts in its latency.
func openLoop(clk clock, start time.Time, interval time.Duration, n, conns int, send func(i int) bool) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var free time.Time // when this sender finished its last request
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				origin, lag := due, free.Sub(due)
				if lag <= 0 {
					clk.SleepUntil(due)
					origin, lag = clk.Now(), 0
				}
				ok := send(i)
				free = clk.Now()
				out[i] = sample{lat: free.Sub(origin), lag: lag, ok: ok}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs clients that each send their next request when the
// previous one completes, until the deadline.
func closedLoop(clients int, until time.Time, send func() bool) []sample {
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			for time.Now().Before(until) {
				t0 := time.Now()
				ok := send()
				local = append(local, sample{lat: time.Since(t0), ok: ok})
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// The bill-open ladder: offered rates as fractions of the knee, the
// latency limit on p99, and the generator-lag limits that tell a
// sustained rate from a growing backlog.
var ladderFractions = []float64{0.4, 0.6, 0.8, 1.0}

const (
	// billOpenKnee is the bill-open rate, in requests per second, past
	// which the seed commit's fleet stops meeting the latency limit on
	// the reference machine (see README.md). The ladder is frozen at
	// fractions of it so that every commit is offered the same rates.
	billOpenKnee = 900.0
	// reportedStep is the ladder step whose latency is reported: 60 %.
	reportedStep = 1
	latencyLimit = 25 * time.Millisecond
	lagLimit     = 5 * time.Millisecond
	// lagFloor keeps a first-third lag of a millisecond or so from
	// failing a step on scheduling jitter alone.
	lagFloor = lagLimit / 2
)

// stepReport summarizes one ladder step.
type stepReport struct {
	rate              float64
	sent, failed      int
	p50, p99          time.Duration
	lagFirst, lagLast time.Duration // lag p99 over the first and last third
	pass              bool
}

func summarizeStep(rate float64, s []sample) stepReport {
	r := stepReport{rate: rate, sent: len(s)}
	for _, x := range s {
		if !x.ok {
			r.failed++
		}
	}
	lat := durations(s, func(x sample) time.Duration { return x.lat })
	r.p50, r.p99 = percentile(lat, 50), percentile(lat, 99)
	third := len(s) / 3
	lag := func(part []sample) time.Duration {
		return percentile(durations(part, func(x sample) time.Duration { return x.lag }), 99)
	}
	r.lagFirst, r.lagLast = lag(s[:third]), lag(s[len(s)-third:])
	r.pass = r.failed == 0 && r.p99 <= latencyLimit && r.lagLast <= lagLimit &&
		r.lagLast <= max(2*r.lagFirst, lagFloor)
	return r
}

// durations extracts one field of every sample, sorted.
func durations(s []sample, field func(sample) time.Duration) []time.Duration {
	out := make([]time.Duration, len(s))
	for i, x := range s {
		out[i] = field(x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// percentile is the nearest-rank p-th percentile of sorted values: the
// smallest value with at least p % of the values at or below it.
func percentile[T time.Duration | float64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p * float64(len(sorted)) / 100))
	k = min(max(k, 1), len(sorted))
	return sorted[k-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
