package resilience

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock for deterministic cooldown tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2016, time.March, 1, 0, 0, 0, 0, time.UTC)}
}

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

func testBreaker(clock *fakeClock, threshold int, cooldown time.Duration, budget int) *Breaker {
	return NewBreaker(BreakerConfig{
		FailureThreshold: threshold,
		OpenTimeout:      cooldown,
		ProbeBudget:      budget,
		Now:              clock.Now,
	})
}

func fail(t *testing.T, b *Breaker) {
	t.Helper()
	done, err := b.Allow()
	if err != nil {
		t.Fatalf("Allow while %s: %v", b.State(), err)
	}
	done(false)
}

func TestBreakerTripsAfterConsecutiveFailures(t *testing.T) {
	clock := newFakeClock()
	b := testBreaker(clock, 3, time.Minute, 1)

	for i := 0; i < 2; i++ {
		fail(t, b)
		if b.State() != Closed {
			t.Fatalf("tripped after %d failures, threshold is 3", i+1)
		}
	}
	// A success resets the consecutive count.
	done, _ := b.Allow()
	done(true)
	fail(t, b)
	fail(t, b)
	if b.State() != Closed {
		t.Fatal("success did not reset the consecutive-failure count")
	}
	fail(t, b)
	if b.State() != Open {
		t.Fatalf("state after 3 consecutive failures = %s, want open", b.State())
	}
	if _, err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("open breaker admitted a call: %v", err)
	}
}

func TestBreakerProbeAfterCooldown(t *testing.T) {
	clock := newFakeClock()
	b := testBreaker(clock, 1, time.Minute, 1)
	fail(t, b)

	clock.Advance(59 * time.Second)
	if _, err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatal("breaker probed before the cooldown elapsed")
	}
	clock.Advance(2 * time.Second)

	// First caller after the cooldown becomes the probe...
	done, err := b.Allow()
	if err != nil {
		t.Fatalf("probe refused after cooldown: %v", err)
	}
	if b.State() != HalfOpen {
		t.Fatalf("state during probe = %s, want half-open", b.State())
	}
	// ...and with the budget of 1 spent, everyone else is rejected.
	if _, err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatal("second caller got a probe slot beyond the budget")
	}

	done(true)
	if b.State() != Closed {
		t.Fatalf("state after successful probe = %s, want closed", b.State())
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	clock := newFakeClock()
	b := testBreaker(clock, 1, time.Minute, 1)
	fail(t, b)
	clock.Advance(2 * time.Minute)

	done, err := b.Allow()
	if err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	done(false)
	if b.State() != Open {
		t.Fatalf("state after failed probe = %s, want open", b.State())
	}
	// The cooldown restarts from the failed probe.
	if _, err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatal("breaker probed again without a fresh cooldown")
	}
	clock.Advance(2 * time.Minute)
	if _, err := b.Allow(); err != nil {
		t.Fatalf("probe refused after second cooldown: %v", err)
	}
}

func TestBreakerDo(t *testing.T) {
	clock := newFakeClock()
	b := testBreaker(clock, 1, time.Minute, 1)
	boom := errors.New("boom")

	if err := b.Do(context.Background(), func(context.Context) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Do = %v, want op error", err)
	}
	ran := false
	err := b.Do(context.Background(), func(context.Context) error { ran = true; return nil })
	if !errors.Is(err, ErrOpen) || ran {
		t.Fatalf("open breaker: Do = %v (op ran: %v), want ErrOpen without running op", err, ran)
	}
}

// TestBreakerStatsSequence pins the counters Stats and State report
// over a trip, a refused call and a recovery; scserved exports them as
// its feed_breaker families.
func TestBreakerStatsSequence(t *testing.T) {
	clock := newFakeClock()
	b := testBreaker(clock, 1, time.Minute, 1)
	fail(t, b)
	if st := b.Stats(); b.State() != Open || st.Opens != 1 || st.Transitions != 1 {
		t.Fatalf("after trip: state=%s opens=%d transitions=%d", b.State(), st.Opens, st.Transitions)
	}
	if _, err := b.Allow(); !errors.Is(err, ErrOpen) || b.Stats().Rejections != 1 {
		t.Fatalf("rejection not counted: err=%v rejections=%d", err, b.Stats().Rejections)
	}
	clock.Advance(2 * time.Minute)
	done, _ := b.Allow()
	done(true)
	if st := b.Stats(); b.State() != Closed || st.Transitions != 3 {
		t.Fatalf("after recovery: state=%s transitions=%d (want closed after open→half-open→closed)", b.State(), st.Transitions)
	}
}

func TestBreakerDoneIsIdempotent(t *testing.T) {
	clock := newFakeClock()
	b := testBreaker(clock, 2, time.Minute, 1)
	done, _ := b.Allow()
	done(false)
	done(false) // second call must not double-count
	if st := b.Stats(); st.Failures != 1 {
		t.Fatalf("failures = %d after double done, want 1", st.Failures)
	}
	if b.State() != Closed {
		t.Fatal("double done tripped the breaker")
	}
}

// TestBreakerStateMachineProperties drives the breaker with a seeded
// random schedule against a reference model and checks the structural
// invariants the design promises:
//
//  1. the breaker is never half-open without an in-flight probe,
//  2. open → closed happens only via a successful probe,
//  3. in-flight probes never exceed the budget.
func TestBreakerStateMachineProperties(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clock := newFakeClock()
		budget := 1 + rng.Intn(3)
		b := NewBreaker(BreakerConfig{
			FailureThreshold: 1 + rng.Intn(4),
			OpenTimeout:      time.Minute,
			ProbeBudget:      budget,
			Now:              clock.Now,
			OnTransition: func(from, to State) {
				if from == Open && to == Closed {
					t.Fatalf("seed %d: direct open → closed transition", seed)
				}
			},
		})

		var inflight []func(bool)
		for step := 0; step < 500; step++ {
			switch rng.Intn(4) {
			case 0: // admit a call
				st := b.State()
				done, err := b.Allow()
				if err != nil {
					if !errors.Is(err, ErrOpen) {
						t.Fatalf("seed %d step %d: Allow = %v", seed, step, err)
					}
					continue
				}
				if st == Open && b.State() != HalfOpen {
					t.Fatalf("seed %d step %d: admit from open left state %s", seed, step, b.State())
				}
				inflight = append(inflight, done)
			case 1, 2: // complete a pending call
				if len(inflight) == 0 {
					continue
				}
				i := rng.Intn(len(inflight))
				done := inflight[i]
				inflight = append(inflight[:i], inflight[i+1:]...)
				done(rng.Intn(2) == 0)
			case 3: // let time pass
				clock.Advance(time.Duration(rng.Intn(90)) * time.Second)
			}
			// White-box invariants after every step (in-package test).
			b.mu.Lock()
			state, probes := b.state, b.probes
			b.mu.Unlock()
			if probes < 0 || probes > budget {
				t.Fatalf("seed %d step %d: %d in-flight probes outside [0, %d]", seed, step, probes, budget)
			}
			if state == HalfOpen && probes == 0 {
				// Inv 1: the transition into half-open hands the probe
				// slot to the admitting caller, so an idle half-open
				// breaker cannot exist.
				t.Fatalf("seed %d step %d: half-open with no in-flight probe", seed, step)
			}
		}
	}
}

// TestBreakerConcurrentCallers hammers one breaker from many
// goroutines (run with -race): counters must reconcile and the breaker
// must end in a legal state.
func TestBreakerConcurrentCallers(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 5, OpenTimeout: time.Millisecond, ProbeBudget: 2})
	var wg sync.WaitGroup
	const workers, perWorker = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				done, err := b.Allow()
				if err != nil {
					continue
				}
				done(rng.Intn(3) != 0)
			}
		}(w)
	}
	wg.Wait()
	st := b.Stats()
	if st.Successes+st.Failures+st.Rejections != workers*perWorker {
		t.Fatalf("accounting leak: %d+%d+%d != %d",
			st.Successes, st.Failures, st.Rejections, workers*perWorker)
	}
	if s := b.State(); s != Closed && s != Open && s != HalfOpen {
		t.Fatalf("illegal final state %d", s)
	}
}
