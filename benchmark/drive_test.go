package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock moves only when told to: sleeping jumps to the wake-up time,
// and sends advance it by their service time.
type fakeClock struct {
	mu        sync.Mutex
	now       time.Time
	oversleep time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// SleepUntil wakes up oversleep after t, as a coarse timer would.
func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t.Add(c.oversleep)
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const ms = time.Millisecond
	for _, c := range []struct {
		name               string
		service, oversleep time.Duration
		lat, lag           []time.Duration
	}{
		// Each request takes 15 ms but one is due every 10 ms: every
		// request waits 5 ms longer than the last for the sender, and
		// that wait counts in its latency.
		{"backlog", 15 * ms, 0, []time.Duration{15 * ms, 20 * ms, 25 * ms, 30 * ms}, []time.Duration{0, 5 * ms, 10 * ms, 15 * ms}},
		// With 5 ms requests the sender keeps up: no lag.
		{"keeps up", 5 * ms, 0, []time.Duration{5 * ms, 5 * ms, 5 * ms, 5 * ms}, []time.Duration{0, 0, 0, 0}},
		// A sender that oversleeps its due time is not the fleet's
		// delay: the request is timed from its send.
		{"oversleep", 5 * ms, 2 * ms, []time.Duration{5 * ms, 5 * ms, 5 * ms, 5 * ms}, []time.Duration{0, 0, 0, 0}},
		// But a backlog it causes is: request 2 is due at 20 ms, and its
		// sender, which overslept request 1, is busy until 21 ms.
		{"oversleep backlog", 9 * ms, 2 * ms, []time.Duration{9 * ms, 9 * ms, 10 * ms, 9 * ms}, []time.Duration{0, 0, 1 * ms, 0}},
	} {
		clk := &fakeClock{now: time.Unix(1000, 0), oversleep: c.oversleep}
		got := openLoop(clk, clk.Now(), 10*ms, 4, 1, func(int) bool {
			clk.advance(c.service)
			return true
		})
		for i, s := range got {
			if s.lat != c.lat[i] || s.lag != c.lag[i] || !s.ok {
				t.Errorf("%s: request %d: lat %v lag %v ok %v; want lat %v lag %v", c.name, i, s.lat, s.lag, s.ok, c.lat[i], c.lag[i])
			}
		}
	}
}

func TestStepFailsOnGrowingBacklog(t *testing.T) {
	const ms = time.Millisecond
	steady := make([]sample, 300)
	growing := make([]sample, 300)
	for i := range steady {
		steady[i] = sample{lat: 2 * ms, lag: ms / 2, ok: true}
		growing[i] = sample{lat: 2*ms + time.Duration(i)*ms/10, lag: time.Duration(i) * ms / 20, ok: true}
	}
	if r := summarizeStep(100, steady); !r.pass {
		t.Errorf("steady step failed: %+v", r)
	}
	if r := summarizeStep(100, growing); r.pass {
		t.Errorf("step with a growing backlog passed: %+v", r)
	}
	steady[7].ok = false
	if r := summarizeStep(100, steady); r.pass || r.failed != 1 {
		t.Errorf("step with a failed request: %+v", r)
	}
}
