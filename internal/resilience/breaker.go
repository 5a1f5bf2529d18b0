package resilience

// Breaker is a three-state circuit breaker. Closed is the normal
// state; FailureThreshold consecutive failures trip it open. Open
// rejects every call with ErrOpen until OpenTimeout has elapsed, at
// which point the next caller transitions it to half-open AND takes a
// probe slot in the same step — the breaker is never half-open without
// an active probe. Half-open admits at most ProbeBudget concurrent
// probes; a successful probe closes the breaker, a failed probe
// reopens it (restarting the cooldown). The only path from open to
// closed is a successful probe.

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrOpen is returned by Allow/Do while the breaker rejects calls.
var ErrOpen = errors.New("resilience: circuit breaker is open")

// State is the breaker's position in the closed → open → half-open
// cycle.
type State int32

// Breaker states. The numeric values are stable: they are exported as
// a gauge (0 closed, 1 half-open, 2 open).
const (
	Closed   State = 0
	HalfOpen State = 1
	Open     State = 2
)

// String returns the conventional lowercase state name.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case HalfOpen:
		return "half-open"
	case Open:
		return "open"
	default:
		return "unknown"
	}
}

// BreakerConfig tunes a Breaker. The zero value is usable.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive closed-state failures
	// trip the breaker; <= 0 selects 5.
	FailureThreshold int
	// OpenTimeout is the cooldown before an open breaker admits a
	// probe; <= 0 selects 30 s.
	OpenTimeout time.Duration
	// ProbeBudget caps concurrent half-open probes; <= 0 selects 1.
	ProbeBudget int
	// Now is the clock (tests inject a fake); nil selects time.Now.
	Now func() time.Time
	// OnTransition, when set, observes every state change. Transitions
	// are queued under the breaker's lock and delivered in order after
	// it is released, so the callback may safely call back into the
	// breaker (State, Stats, even Allow). Delivery happens on the
	// goroutine whose Allow/done triggered the change, before that
	// call returns.
	OnTransition func(from, to State)
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.OpenTimeout <= 0 {
		c.OpenTimeout = 30 * time.Second
	}
	if c.ProbeBudget <= 0 {
		c.ProbeBudget = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// BreakerStats is a snapshot of the breaker's counters.
type BreakerStats struct {
	State       State
	Transitions uint64
	Opens       uint64
	Probes      uint64
	Successes   uint64
	Failures    uint64
	Rejections  uint64
}

// Breaker is a concurrency-safe circuit breaker. Construct with
// NewBreaker.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    State
	failures int // consecutive closed-state failures
	openedAt time.Time
	probes   int // in-flight half-open probes
	stats    BreakerStats
	// pending queues OnTransition notifications recorded under mu;
	// they are drained and delivered after the lock is released so the
	// callback never runs inside the critical section (reentrancy and
	// slow-callback safety).
	pending []transition
}

// transition is one queued OnTransition notification.
type transition struct{ from, to State }

// NewBreaker builds a breaker in the closed state.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// transitionLocked moves the breaker to a new state, counting it and
// queueing the OnTransition hook. Callers hold b.mu.
func (b *Breaker) transitionLocked(to State) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	b.stats.Transitions++
	if to == Open {
		b.stats.Opens++
		b.openedAt = b.cfg.Now()
	}
	if to != HalfOpen {
		b.probes = 0
	}
	if b.cfg.OnTransition != nil {
		b.pending = append(b.pending, transition{from, to})
	}
}

// deliverPending flushes queued OnTransition notifications. Callers
// must NOT hold b.mu: the whole point is that the user callback runs
// outside the critical section.
func (b *Breaker) deliverPending() {
	if b.cfg.OnTransition == nil {
		return
	}
	b.mu.Lock()
	pending := b.pending
	b.pending = nil
	b.mu.Unlock()
	for _, tr := range pending {
		b.cfg.OnTransition(tr.from, tr.to)
	}
}

// State returns the breaker's current state. An open breaker whose
// cooldown has expired still reports open — the half-open transition
// happens on the next Allow, which also claims the probe slot.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Stats returns a snapshot of the breaker's counters.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.stats
	st.State = b.state
	return st
}

// Allow asks to place one call. On admission it returns a done
// function the caller MUST invoke exactly once with the call's
// outcome; on rejection it returns ErrOpen. A call admitted while
// half-open holds one of the ProbeBudget probe slots until its done
// runs.
func (b *Breaker) Allow() (done func(success bool), err error) {
	done, err = b.admit()
	b.deliverPending()
	return done, err
}

// admit is Allow's critical section; any transition it causes is
// queued for delivery after the lock is released.
func (b *Breaker) admit() (done func(success bool), err error) {
	b.mu.Lock()
	defer b.mu.Unlock()

	switch b.state {
	case Open:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.OpenTimeout {
			b.stats.Rejections++
			return nil, ErrOpen
		}
		// Cooldown over: become half-open and give this caller the
		// probe slot in the same step, so half-open never exists
		// without an in-flight probe.
		b.transitionLocked(HalfOpen)
		fallthrough
	case HalfOpen:
		if b.probes >= b.cfg.ProbeBudget {
			b.stats.Rejections++
			return nil, ErrOpen
		}
		b.probes++
		b.stats.Probes++
		return b.doneFunc(HalfOpen), nil
	default: // Closed
		return b.doneFunc(Closed), nil
	}
}

// doneFunc builds the once-only completion callback for a call
// admitted in the given state. Callers hold b.mu.
func (b *Breaker) doneFunc(admittedIn State) func(success bool) {
	var once sync.Once
	return func(success bool) {
		once.Do(func() { b.complete(admittedIn, success) })
	}
}

func (b *Breaker) complete(admittedIn State, success bool) {
	b.settle(admittedIn, success)
	b.deliverPending()
}

// settle is complete's critical section; any transition it causes is
// queued for delivery after the lock is released.
func (b *Breaker) settle(admittedIn State, success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if success {
		b.stats.Successes++
	} else {
		b.stats.Failures++
	}

	if admittedIn == HalfOpen {
		if b.state == HalfOpen {
			b.probes--
			if success {
				// The one and only open → closed path.
				b.failures = 0
				b.transitionLocked(Closed)
			} else {
				b.transitionLocked(Open)
			}
		}
		// If the state moved on while the probe ran (another probe
		// already closed or reopened the breaker), this outcome has
		// nothing left to decide.
		return
	}

	// Closed-state accounting. If the breaker tripped while this call
	// was in flight, its outcome no longer matters.
	if b.state != Closed {
		return
	}
	if success {
		b.failures = 0
		return
	}
	b.failures++
	if b.failures >= b.cfg.FailureThreshold {
		b.failures = 0
		b.transitionLocked(Open)
	}
}

// Do places op behind the breaker: it returns ErrOpen without calling
// op when the breaker rejects, and otherwise reports op's outcome
// (any non-nil error counts as a failure, including context errors —
// a dependency that times out is a failing dependency).
func (b *Breaker) Do(ctx context.Context, op func(ctx context.Context) error) error {
	done, err := b.Allow()
	if err != nil {
		return err
	}
	err = op(ctx)
	done(err == nil)
	return err
}
