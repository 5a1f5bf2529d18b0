package feed

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// scripted is a provider whose next outcomes are queued by the test.
type scripted struct {
	mu          sync.Mutex
	series      *timeseries.PriceSeries
	fail        error // when set, every Fetch fails with it
	calls       int
	failedCalls int
}

func (p *scripted) Fetch(context.Context, time.Time, time.Time) (*timeseries.PriceSeries, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	if p.fail != nil {
		p.failedCalls++
		return nil, p.fail
	}
	return p.series, nil
}

func (p *scripted) Describe() string { return "scripted test feed" }

func (p *scripted) setFail(err error) {
	p.mu.Lock()
	p.fail = err
	p.mu.Unlock()
}

func (p *scripted) callCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

// healAfter clears the scripted failure once n calls have failed since
// it was set (call counts only grow, so "since set" = total calls).
func (p *scripted) healAfter(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fail != nil && p.failedCalls >= n {
		p.fail = nil
	}
}

var (
	t0      = time.Date(2016, time.March, 1, 0, 0, 0, 0, time.UTC)
	windowA = [2]time.Time{t0, t0.Add(24 * time.Hour)}
)

func daySeries() *timeseries.PriceSeries {
	return timeseries.ConstantPrice(t0, time.Hour, 25, units.EnergyPrice(0.05))
}

// noRetry keeps background refreshes single-shot so tests control
// every upstream attempt.
var noRetry = resilience.Retry{MaxAttempts: 1}

func newTestCache(p PriceProvider, clock *fakeClock, ttl, budget time.Duration) *Cached {
	return NewCached(p, CachedConfig{
		TTL:             ttl,
		StalenessBudget: budget,
		Retry:           noRetry,
		Breaker:         &resilience.BreakerConfig{FailureThreshold: 100, Now: clock.Now},
		Now:             clock.Now,
	})
}

// fakeClock mirrors the resilience test clock (the packages do not
// share test helpers).
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: t0} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestCachedFreshWithinTTL(t *testing.T) {
	clock := newFakeClock()
	p := &scripted{series: daySeries()}
	c := newTestCache(p, clock, 5*time.Minute, time.Hour)
	defer c.Close()

	res := c.Prices(context.Background(), windowA[0], windowA[1])
	if res.State != Fresh || res.Series == nil || res.Version != 1 {
		t.Fatalf("cold fetch: %+v", res)
	}
	// Within TTL: served from cache, no second upstream call.
	clock.Advance(4 * time.Minute)
	res = c.Prices(context.Background(), windowA[0], windowA[1])
	if res.State != Fresh || p.callCount() != 1 {
		t.Fatalf("within TTL: state=%s upstream calls=%d, want fresh from cache", res.State, p.callCount())
	}
	// Past TTL with a healthy upstream: refetched, version bumps.
	clock.Advance(2 * time.Minute)
	res = c.Prices(context.Background(), windowA[0], windowA[1])
	if res.State != Fresh || p.callCount() != 2 || res.Version != 2 {
		t.Fatalf("past TTL: state=%s calls=%d version=%d", res.State, p.callCount(), res.Version)
	}
}

func TestCachedServesStaleWithinBudget(t *testing.T) {
	clock := newFakeClock()
	p := &scripted{series: daySeries()}
	c := newTestCache(p, clock, 5*time.Minute, time.Hour)
	defer c.Close()

	if res := c.Prices(context.Background(), windowA[0], windowA[1]); res.State != Fresh {
		t.Fatalf("cold fetch: %+v", res)
	}
	p.setFail(errors.New("upstream 503"))
	clock.Advance(30 * time.Minute)

	res := c.Prices(context.Background(), windowA[0], windowA[1])
	if res.State != Stale || res.Series == nil {
		t.Fatalf("failing upstream within budget: %+v", res)
	}
	if res.Age != 30*time.Minute || !strings.Contains(res.Reason, "upstream 503") {
		t.Fatalf("stale result age=%s reason=%q", res.Age, res.Reason)
	}
	// Same version as the cached fetch: engines compiled against it
	// stay valid.
	if res.Version != 1 {
		t.Fatalf("stale version = %d, want 1", res.Version)
	}
}

func TestCachedDegradesPastBudget(t *testing.T) {
	clock := newFakeClock()
	p := &scripted{series: daySeries()}
	c := newTestCache(p, clock, 5*time.Minute, time.Hour)
	defer c.Close()

	c.Prices(context.Background(), windowA[0], windowA[1])
	p.setFail(errors.New("upstream gone"))
	clock.Advance(2 * time.Hour)

	res := c.Prices(context.Background(), windowA[0], windowA[1])
	if res.State != Degraded || res.Series != nil {
		t.Fatalf("past budget: %+v", res)
	}
	for _, want := range []string{"upstream gone", "past the 1h0m0s staleness budget"} {
		if !strings.Contains(res.Reason, want) {
			t.Fatalf("degraded reason %q missing %q", res.Reason, want)
		}
	}
}

func TestCachedDegradedWhenNeverFetched(t *testing.T) {
	clock := newFakeClock()
	p := &scripted{fail: errors.New("refused")}
	c := newTestCache(p, clock, 5*time.Minute, time.Hour)
	defer c.Close()

	res := c.Prices(context.Background(), windowA[0], windowA[1])
	if res.State != Degraded || res.Series != nil || res.Version != 0 {
		t.Fatalf("never-successful feed: %+v", res)
	}
	if !strings.Contains(res.Reason, "no usable cached prices") {
		t.Fatalf("reason: %q", res.Reason)
	}
}

func TestCachedRecoversAfterOutage(t *testing.T) {
	clock := newFakeClock()
	p := &scripted{series: daySeries()}
	c := newTestCache(p, clock, 5*time.Minute, time.Hour)
	defer c.Close()

	c.Prices(context.Background(), windowA[0], windowA[1])
	p.setFail(errors.New("flap"))
	clock.Advance(10 * time.Minute)
	if res := c.Prices(context.Background(), windowA[0], windowA[1]); res.State != Stale {
		t.Fatalf("during outage: %+v", res)
	}
	// The stale answer kicked a background refresh. Let its one attempt
	// fail against the outage before the upstream heals, or it could
	// store the recovered series beside the foreground fetch below.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		refreshing := c.refreshing
		c.mu.Unlock()
		if !refreshing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background refresh never finished its attempt")
		}
		time.Sleep(time.Millisecond)
	}
	p.setFail(nil)
	clock.Advance(time.Minute)
	res := c.Prices(context.Background(), windowA[0], windowA[1])
	if res.State != Fresh || res.Version != 2 {
		t.Fatalf("after recovery: %+v", res)
	}
	if err := c.LastError(); err != nil {
		t.Fatalf("LastError after recovery: %v", err)
	}
}

func TestCachedBreakerFailsFast(t *testing.T) {
	clock := newFakeClock()
	p := &scripted{fail: errors.New("down hard")}
	c := NewCached(p, CachedConfig{
		TTL: 5 * time.Minute, StalenessBudget: time.Hour,
		Retry:   noRetry,
		Breaker: &resilience.BreakerConfig{FailureThreshold: 3, OpenTimeout: time.Hour, Now: clock.Now},
		Now:     clock.Now,
	})
	defer c.Close()

	// Trip the breaker with consecutive failures, then confirm further
	// requests stop reaching the upstream at all.
	for i := 0; i < 6; i++ {
		c.Prices(context.Background(), windowA[0], windowA[1])
	}
	tripped := p.callCount()
	if tripped > 4 { // 3 sync + at most 1 background before opening
		t.Fatalf("breaker let %d calls through, threshold 3", tripped)
	}
	if c.Breaker().State() != resilience.Open {
		t.Fatalf("breaker state = %s, want open", c.Breaker().State())
	}
	res := c.Prices(context.Background(), windowA[0], windowA[1])
	if res.State != Degraded || !strings.Contains(res.Reason, "circuit breaker is open") {
		t.Fatalf("open-breaker answer: %+v", res)
	}
}

func TestCachedBackgroundRefreshHeals(t *testing.T) {
	clock := newFakeClock()
	p := &scripted{series: daySeries()}
	c := NewCached(p, CachedConfig{
		TTL: 5 * time.Minute, StalenessBudget: time.Hour,
		// The injected sleep makes the background retries instant and
		// deterministically heals the upstream after the second
		// failure, so the third attempt must land.
		Retry: resilience.Retry{MaxAttempts: 5, Seed: 1,
			Sleep: func(_ context.Context, _ time.Duration) error {
				p.healAfter(2)
				return nil
			}},
		Breaker: &resilience.BreakerConfig{FailureThreshold: 100, Now: clock.Now},
		Now:     clock.Now,
	})
	defer c.Close()

	c.Prices(context.Background(), windowA[0], windowA[1])
	p.setFail(errors.New("brief blip"))
	clock.Advance(10 * time.Minute)
	// This request fails synchronously, kicks the background refresh,
	// and is served stale; the refresh loop then heals the cache with
	// no further requests arriving.
	if res := c.Prices(context.Background(), windowA[0], windowA[1]); res.State != Stale {
		t.Fatalf("during blip: %+v", res)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Version() >= 2 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("background refresh never healed the cache (version %d, last error %v)",
		c.Version(), c.LastError())
}

func TestCachedWindowNotCovered(t *testing.T) {
	clock := newFakeClock()
	p := &scripted{series: daySeries()} // covers only day one
	c := newTestCache(p, clock, time.Hour, 2*time.Hour)
	defer c.Close()

	c.Prices(context.Background(), windowA[0], windowA[1])
	p.setFail(errors.New("down"))
	// A window outside the cached span cannot be served stale — prices
	// for it would be pure extrapolation — so it degrades.
	farStart := t0.Add(30 * 24 * time.Hour)
	res := c.Prices(context.Background(), farStart, farStart.Add(24*time.Hour))
	if res.State != Degraded {
		t.Fatalf("uncovered window: %+v", res)
	}
}

func TestCachedStatsAccount(t *testing.T) {
	clock := newFakeClock()
	p := &scripted{series: daySeries()}
	c := newTestCache(p, clock, 5*time.Minute, time.Hour)
	defer c.Close()

	c.Prices(context.Background(), windowA[0], windowA[1]) // fresh (fetch)
	c.Prices(context.Background(), windowA[0], windowA[1]) // fresh (cache)
	p.setFail(errors.New("x"))
	clock.Advance(10 * time.Minute)
	c.Prices(context.Background(), windowA[0], windowA[1]) // stale
	clock.Advance(2 * time.Hour)
	c.Prices(context.Background(), windowA[0], windowA[1]) // degraded

	st := c.Stats()
	if st.Fresh != 2 || st.Stale != 1 || st.Degraded != 1 || st.Refreshes != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestCachedConcurrent hammers one cache from many goroutines while
// the upstream flaps (run with -race): every answer must be one of the
// three legal states and degraded answers must carry a reason.
func TestCachedConcurrent(t *testing.T) {
	clock := newFakeClock()
	p := &scripted{series: daySeries()}
	c := NewCached(p, CachedConfig{
		TTL: time.Minute, StalenessBudget: time.Hour,
		Retry:   noRetry,
		Breaker: &resilience.BreakerConfig{FailureThreshold: 5, OpenTimeout: time.Minute, Now: clock.Now},
		Now:     clock.Now,
	})
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if i%7 == w%7 {
					p.setFail(fmt.Errorf("flap %d/%d", w, i))
				} else if i%11 == 0 {
					p.setFail(nil)
				}
				if i%13 == 0 {
					clock.Advance(30 * time.Second)
				}
				res := c.Prices(context.Background(), windowA[0], windowA[1])
				switch res.State {
				case Fresh, Stale:
					if res.Series == nil {
						errs <- fmt.Errorf("%s answer without a series", res.State)
					}
				case Degraded:
					if res.Reason == "" {
						errs <- errors.New("degraded answer without a reason")
					}
				default:
					errs <- fmt.Errorf("illegal state %d", res.State)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
