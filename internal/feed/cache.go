package feed

// Cached is the resilience wrapper every real provider is served
// through: it remembers the last good series and answers in one of
// three explicit states. Fresh — the cached series covers the window
// and is within its TTL (or was just fetched). Stale — the upstream
// fetch failed but the cached series is younger than the staleness
// budget, so billing proceeds on slightly old prices (the paper's
// dynamic-tariff sites bill day-ahead prices; an hour-old curve is a
// rounding error next to refusing service). Degraded — the feed has
// been down past the budget (or never succeeded), and the caller
// should fall back to the contract's declared fixed backstop, exactly
// the fixed-price fallback most surveyed sites keep.
//
// Synchronous fetches take one attempt through the circuit breaker —
// an open breaker fails fast into stale/degraded instead of stacking
// request latency onto a dead upstream. The retry/backoff loop lives
// in a single background refresh goroutine kicked on failure, so at
// most one retry storm exists per cache regardless of request volume.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/resilience"
	"repro/internal/timeseries"
)

// State classifies a cache answer.
type State int

// Cache answer states.
const (
	Fresh State = iota
	Stale
	Degraded
)

// String returns the lowercase state name used in headers and metrics.
func (s State) String() string {
	switch s {
	case Fresh:
		return "fresh"
	case Stale:
		return "stale"
	case Degraded:
		return "degraded"
	default:
		return "unknown"
	}
}

// Result is one cache answer. Series is nil exactly when State is
// Degraded; Version identifies the underlying fetch generation so
// engine caches can key compiled artifacts on it.
type Result struct {
	Series  *timeseries.PriceSeries
	State   State
	Age     time.Duration // how old the served series is (0 when just fetched)
	Reason  string        // why the answer is stale or degraded
	Version uint64
}

// CachedConfig tunes a Cached provider. The zero value is usable.
type CachedConfig struct {
	// TTL is how long a fetched series stays fresh; <= 0 selects 5 m.
	TTL time.Duration
	// StalenessBudget is the maximum age at which a cached series may
	// still be served while the upstream is failing; <= 0 selects 1 h.
	// Ages beyond the budget degrade.
	StalenessBudget time.Duration
	// Retry drives the background refresh loop.
	Retry resilience.Retry
	// Breaker guards every upstream fetch; nil builds one with
	// defaults.
	Breaker *resilience.BreakerConfig
	// Now is the clock (tests inject a fake); nil selects time.Now.
	Now func() time.Time
}

func (c CachedConfig) withDefaults() CachedConfig {
	if c.TTL <= 0 {
		c.TTL = 5 * time.Minute
	}
	if c.StalenessBudget <= 0 {
		c.StalenessBudget = time.Hour
	}
	if c.StalenessBudget < c.TTL {
		c.StalenessBudget = c.TTL
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Cached wraps a provider with the TTL/stale/degraded state machine.
// Construct with NewCached; Close stops the background refresh.
type Cached struct {
	provider PriceProvider
	cfg      CachedConfig
	breaker  *resilience.Breaker

	refreshCtx  context.Context
	stopRefresh context.CancelFunc
	wg          sync.WaitGroup

	mu         sync.Mutex
	series     *timeseries.PriceSeries
	fetchedAt  time.Time
	version    uint64
	lastErr    error
	refreshing bool

	stats CacheStats
}

// CacheStats counts cache outcomes.
type CacheStats struct {
	Fresh, Stale, Degraded uint64
	Refreshes              uint64 // successful upstream fetches
	RefreshFailures        uint64 // failed upstream fetch attempts
}

// NewCached wraps provider with the given configuration.
func NewCached(provider PriceProvider, cfg CachedConfig) *Cached {
	cfg = cfg.withDefaults()
	bcfg := resilience.BreakerConfig{}
	if cfg.Breaker != nil {
		bcfg = *cfg.Breaker
	}
	if bcfg.Now == nil {
		bcfg.Now = cfg.Now
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Cached{
		provider:    provider,
		cfg:         cfg,
		breaker:     resilience.NewBreaker(bcfg),
		refreshCtx:  ctx,
		stopRefresh: cancel,
	}
}

// Close stops the background refresh loop and waits for it to exit.
func (c *Cached) Close() {
	c.stopRefresh()
	c.wg.Wait()
}

// Breaker exposes the breaker guarding upstream fetches, for metrics.
func (c *Cached) Breaker() *resilience.Breaker { return c.breaker }

// Describe returns the wrapped provider's description.
func (c *Cached) Describe() string { return c.provider.Describe() }

// Stats returns a snapshot of the cache counters.
func (c *Cached) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Age returns how old the cached series is, and false when nothing has
// ever been fetched.
func (c *Cached) Age() (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.series == nil {
		return 0, false
	}
	return c.cfg.Now().Sub(c.fetchedAt), true
}

// covers reports whether the cached series spans [start, end).
func covers(s *timeseries.PriceSeries, start, end time.Time) bool {
	return s != nil && !s.Start().After(start) && !s.End().Before(end)
}

// fetchOnce takes one guarded attempt at the upstream and validates
// the result. It does not touch the cache.
func (c *Cached) fetchOnce(ctx context.Context, start, end time.Time) (*timeseries.PriceSeries, error) {
	var series *timeseries.PriceSeries
	err := c.breaker.Do(ctx, func(ctx context.Context) error {
		s, err := c.provider.Fetch(ctx, start, end)
		if err != nil {
			return err
		}
		if err := Validate(s); err != nil {
			return err
		}
		series = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	return series, nil
}

// store records a successful fetch and returns the version it stored
// the series under.
func (c *Cached) store(s *timeseries.PriceSeries) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.series = s
	c.fetchedAt = c.cfg.Now()
	c.version++
	c.lastErr = nil
	c.stats.Refreshes++
	return c.version
}

// Prices answers a price request for [start, end) with the cache's
// three-state semantics. It never returns an error: a dead feed is a
// Degraded result, and deciding what that means (fall back, refuse,
// alert) is the biller's call.
func (c *Cached) Prices(ctx context.Context, start, end time.Time) Result {
	c.mu.Lock()
	if covers(c.series, start, end) && c.cfg.Now().Sub(c.fetchedAt) <= c.cfg.TTL {
		res := Result{Series: c.series, State: Fresh,
			Age: c.cfg.Now().Sub(c.fetchedAt), Version: c.version}
		c.stats.Fresh++
		c.mu.Unlock()
		return res
	}
	c.mu.Unlock()

	// Cache cold, stale, or not covering: one synchronous guarded
	// attempt. An open breaker rejects instantly and we fall through
	// to the stale/degraded answer.
	series, err := c.fetchOnce(ctx, start, end)
	if err == nil {
		// The version store returns, not c.version: a concurrent
		// store may already have moved it on to another series.
		v := c.store(series)
		c.mu.Lock()
		res := Result{Series: series, State: Fresh, Version: v}
		c.stats.Fresh++
		c.mu.Unlock()
		return res
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.RefreshFailures++
	c.lastErr = err
	c.kickRefreshLocked(start, end)

	age := c.cfg.Now().Sub(c.fetchedAt)
	if c.series != nil && age <= c.cfg.StalenessBudget && covers(c.series, start, end) {
		c.stats.Stale++
		return Result{Series: c.series, State: Stale, Age: age, Version: c.version,
			Reason: fmt.Sprintf("feed fetch failed (%v); serving %s-old prices within the %s budget",
				err, age.Round(time.Second), c.cfg.StalenessBudget)}
	}

	c.stats.Degraded++
	reason := fmt.Sprintf("feed unavailable (%v) and no usable cached prices", err)
	if c.series != nil && age > c.cfg.StalenessBudget {
		reason = fmt.Sprintf("feed unavailable (%v); cached prices are %s old, past the %s staleness budget",
			err, age.Round(time.Second), c.cfg.StalenessBudget)
	}
	return Result{State: Degraded, Age: age, Reason: reason, Version: c.version}
}

// kickRefreshLocked starts the background refresh goroutine unless one
// is already running. Callers hold c.mu.
func (c *Cached) kickRefreshLocked(start, end time.Time) {
	if c.refreshing || c.refreshCtx.Err() != nil {
		return
	}
	c.refreshing = true
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		err := c.cfg.Retry.Do(c.refreshCtx, func(ctx context.Context) error {
			s, ferr := c.fetchOnce(ctx, start, end)
			if ferr != nil {
				c.mu.Lock()
				c.stats.RefreshFailures++
				c.mu.Unlock()
				return ferr
			}
			c.store(s)
			return nil
		})
		c.mu.Lock()
		c.refreshing = false
		if err != nil {
			c.lastErr = err
		}
		c.mu.Unlock()
	}()
}

// LastError returns the most recent fetch error, nil after a
// successful fetch.
func (c *Cached) LastError() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastErr
}

// Version returns the current fetch generation (0 before any success).
func (c *Cached) Version() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}
