package route

// Table tests for the forward plan under a virtual clock: every event
// carries its own time, so failover, hedging, budget and deadline
// decisions are checked with no listener, no goroutine and no sleep.

import (
	"testing"
	"time"
)

var planBackends = []string{"http://a", "http://b", "http://c"}

// planStep is one event fed to the plan at t0+at, and the attempt it
// must admit: the backend, or "" for none, and its per-try timeout.
type planStep struct {
	ev      string // start, hedge, failed, won
	at      time.Duration
	want    string
	timeout time.Duration
}

func TestPlan(t *testing.T) {
	const ms = time.Millisecond
	base := Config{
		RequestTimeout:  3 * time.Second,
		TryTimeoutFloor: 100 * ms,
		TryTimeoutCeil:  2 * time.Second,
		HedgeDelayFloor: 20 * ms,
		OpenTimeout:     time.Hour,
	}
	with := func(edit func(*Config)) Config {
		c := base
		edit(&c)
		return c
	}
	drainBudget := func(rt *Router) {
		for rt.budget.TryAcquire() {
		}
	}
	cases := []struct {
		name      string
		cfg       Config
		hedgeable bool
		setup     func(*Router)
		steps     []planStep
		hedgeIn   time.Duration // armed after start
		retries   uint64
		hedges    uint64
		exhausted uint64
	}{{
		name: "blackhole: each per-try timeout expires, then failover down the ranking",
		cfg:  with(func(c *Config) { c.DisableHedge = true }),
		steps: []planStep{
			{"start", 0, "http://a", time.Second},
			{"failed", time.Second, "http://b", time.Second},
			{"failed", 2 * time.Second, "http://c", time.Second},
			{"failed", 3 * time.Second, "", 0},
		},
		retries: 2,
	}, {
		name:      "brownout: the hedge fires at the clamped p95, once, and no failover while it is in flight",
		cfg:       base,
		hedgeable: true,
		setup: func(rt *Router) {
			for i := 0; i < 100; i++ {
				rt.byName["http://a"].latency.Observe(0.200)
			}
		},
		hedgeIn: 200 * ms,
		steps: []planStep{
			{"start", 0, "http://a", time.Second},
			{"hedge", 200 * ms, "http://b", 1400 * ms},
			{"hedge", 300 * ms, "", 0},
			{"failed", 400 * ms, "", 0},
			{"won", 500 * ms, "", 0},
		},
		hedges: 1,
	}, {
		name:      "empty digest: the hedge waits the floor",
		cfg:       base,
		hedgeable: true,
		hedgeIn:   20 * ms,
		steps:     []planStep{{"start", 0, "http://a", time.Second}},
	}, {
		name:      "slow digest: the hedge waits at most the try ceiling",
		cfg:       base,
		hedgeable: true,
		setup:     func(rt *Router) { rt.byName["http://a"].latency.Observe(30) },
		hedgeIn:   2 * time.Second,
		steps:     []planStep{{"start", 0, "http://a", time.Second}},
	}, {
		name:      "budget spent: a refused hedge and a refused failover each count",
		cfg:       base,
		hedgeable: true,
		setup:     drainBudget,
		hedgeIn:   20 * ms,
		steps: []planStep{
			{"start", 0, "http://a", time.Second},
			{"hedge", 20 * ms, "", 0},
			{"failed", 50 * ms, "", 0},
		},
		exhausted: 2,
	}, {
		name: "deadline nearly spent: the per-try timeout floors",
		cfg:  with(func(c *Config) { c.DisableHedge = true }),
		steps: []planStep{
			{"start", 2900 * ms, "http://a", 100 * ms},
			{"failed", 4 * time.Second, "http://b", 100 * ms},
		},
		retries: 1,
	}, {
		name:      "ineligible and breaker-open backends are skipped",
		cfg:       with(func(c *Config) { c.FailureThreshold = 1 }),
		hedgeable: true,
		setup: func(rt *Router) {
			rt.byName["http://a"].ready.Store(false)
			done, err := rt.byName["http://b"].breaker.Allow()
			if err != nil {
				panic(err)
			}
			done(false)
		},
		steps: []planStep{
			{"start", 0, "http://c", 2 * time.Second},
			{"failed", time.Second, "", 0},
		},
	}, {
		name: "a request that is not hedgeable arms no hedge",
		cfg:  base,
		steps: []planStep{
			{"start", 0, "http://a", time.Second},
			{"hedge", time.Second, "", 0},
		},
	}, {
		name:      "DisableHedge arms no hedge",
		cfg:       with(func(c *Config) { c.DisableHedge = true }),
		hedgeable: true,
		steps: []planStep{
			{"start", 0, "http://a", time.Second},
			{"hedge", time.Second, "", 0},
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Backends = planBackends
			rt, err := NewRouter(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.setup != nil {
				tc.setup(rt)
			}
			t0 := time.Date(2019, time.August, 5, 0, 0, 0, 0, time.UTC)
			p := rt.newPlan(planBackends, t0.Add(cfg.RequestTimeout), tc.hedgeable)
			granted := rt.budget.Stats().Granted
			for i, s := range tc.steps {
				now := t0.Add(s.at)
				var got try
				var ok bool
				switch s.ev {
				case "start":
					got, ok = p.start(now)
					if p.hedgeIn != tc.hedgeIn {
						t.Errorf("hedge armed at %s, want %s", p.hedgeIn, tc.hedgeIn)
					}
					if g := rt.budget.Stats().Granted; g != granted {
						t.Errorf("the primary attempt spent %d budget tokens", g-granted)
					}
				case "hedge":
					got, ok = p.hedge(now)
				case "failed":
					got, ok = p.failed(now)
				case "won":
					p.won()
				}
				name := ""
				if ok {
					name = got.b.name
					if got.hedge != (s.ev == "hedge") {
						t.Errorf("step %d: hedge flag %v on a %s attempt", i, got.hedge, s.ev)
					}
				}
				if name != s.want || (ok && got.timeout != s.timeout) {
					t.Errorf("step %d (%s at %s): admitted %q with timeout %s, want %q with %s",
						i, s.ev, s.at, name, got.timeout, s.want, s.timeout)
				}
			}
			m := rt.metrics
			if m.retries.Value() != tc.retries || m.hedges.Value() != tc.hedges || m.budgetExhausted.Value() != tc.exhausted {
				t.Errorf("retries=%d hedges=%d exhausted=%d, want %d %d %d",
					m.retries.Value(), m.hedges.Value(), m.budgetExhausted.Value(), tc.retries, tc.hedges, tc.exhausted)
			}
		})
	}
}

// FuzzPlan drives a plan with random event sequences — hedge due,
// attempt failed or won, eligibility and breaker flips, budget drained
// or refilled — and checks the invariants the router relies on: no more
// attempts than ranked backends and none twice on one backend, at most
// one hedge, no budget spent on the primary, in-flight never negative,
// per-try timeouts inside [floor, ceil], and counters that match.
func FuzzPlan(f *testing.F) {
	f.Add([]byte{3, 1, 0, 5, 1, 9, 2, 3, 2, 1, 2, 1})
	f.Add([]byte{2, 9, 1, 1, 2, 2, 4, 0, 2, 0, 2, 0})
	f.Add([]byte{4, 0, 6, 1, 6, 1, 7, 200, 2, 7, 1, 1, 2, 1, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, flags := 1+int(data[0]%4), data[1]
		cfg := Config{
			FailureThreshold: 1,
			OpenTimeout:      time.Hour,
			RequestTimeout:   time.Second,
			TryTimeoutFloor:  10 * time.Millisecond,
			TryTimeoutCeil:   400 * time.Millisecond,
			DisableHedge:     flags&1 != 0,
			BudgetBurst:      float64(flags>>4) + 0.5,
		}
		for i := 0; i < n; i++ {
			cfg.Backends = append(cfg.Backends, "http://backend-"+string(rune('a'+i)))
		}
		rt, err := NewRouter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		order := Rank(cfg.Backends, string(data))
		t0 := time.Date(2019, time.August, 5, 0, 0, 0, 0, time.UTC)
		now := t0
		p := rt.newPlan(order, t0.Add(cfg.RequestTimeout), flags&2 != 0)

		seen := map[string]bool{}
		var claims []func(bool)
		var hedges, retries, started int
		admit := func(tr try, ok bool, ev string) {
			if !ok {
				return
			}
			started++
			if seen[tr.b.name] {
				t.Fatalf("%s attempt on %s, which was already tried", ev, tr.b.name)
			}
			seen[tr.b.name] = true
			if tr.timeout < cfg.TryTimeoutFloor || tr.timeout > cfg.TryTimeoutCeil {
				t.Fatalf("%s attempt timeout %s outside [%s, %s]", ev, tr.timeout, cfg.TryTimeoutFloor, cfg.TryTimeoutCeil)
			}
			if tr.hedge != (ev == "hedge") {
				t.Fatalf("%s attempt has hedge=%v", ev, tr.hedge)
			}
			claims = append(claims, tr.done)
		}

		granted := rt.budget.Stats().Granted
		tr, ok := p.start(now)
		admit(tr, ok, "start")
		if g := rt.budget.Stats().Granted; g != granted {
			t.Fatalf("the primary attempt spent %d budget tokens", g-granted)
		}
		for i := 2; i+1 < len(data); i += 2 {
			op, arg := data[i]%7, data[i+1]
			now = now.Add(time.Duration(arg) * time.Millisecond)
			b := rt.backends[int(arg)%n]
			switch op {
			case 0:
				tr, ok := p.hedge(now)
				if ok {
					hedges++
				}
				admit(tr, ok, "hedge")
			case 1, 2:
				before := p.inflight
				var tr try
				var ok bool
				if op == 1 {
					tr, ok = p.failed(now)
				} else {
					p.won()
				}
				if before > 0 && len(claims) > 0 {
					claims[0](op == 2)
					claims = claims[1:]
				}
				if ok {
					retries++
				}
				admit(tr, ok, "failed")
			case 3:
				b.ready.Store(!b.ready.Load())
			case 4:
				if done, err := b.breaker.Allow(); err == nil {
					done(false)
				}
			case 5:
				rt.budget.TryAcquire()
			case 6:
				rt.budget.OnPrimary()
			}
			if p.inflight < 0 {
				t.Fatalf("in flight = %d", p.inflight)
			}
		}
		if started > len(order) {
			t.Fatalf("%d attempts over %d ranked backends", started, len(order))
		}
		if hedges > 1 {
			t.Fatalf("%d hedges, want at most one", hedges)
		}
		m := rt.metrics
		if m.hedges.Value() != uint64(hedges) || m.retries.Value() != uint64(retries) {
			t.Fatalf("counters hedges=%d retries=%d, plan admitted %d and %d",
				m.hedges.Value(), m.retries.Value(), hedges, retries)
		}
	})
}

// TestDigestQuantileAllocs pins the hedge-delay lookup's copy of the
// ring on the stack: one is taken for every hedgeable request.
func TestDigestQuantileAllocs(t *testing.T) {
	var d digest
	for i := 0; i < 3*digestSize; i++ {
		d.Observe(float64(i % 97))
	}
	if allocs := testing.AllocsPerRun(100, func() { d.Quantile(0.95) }); allocs != 0 {
		t.Errorf("Quantile allocates %v times per call, want 0", allocs)
	}
}
