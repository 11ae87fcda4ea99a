// The per-backend circuit breaker: the client-side mirror of the server's
// admission control. Where culpeod sheds load it cannot absorb (503 +
// Retry-After), the breaker sheds load the backend cannot answer — after a
// run of consecutive failures it opens and the pool stops offering traffic
// to that backend, so a dead or flapping instance costs one failed probe
// per cooldown instead of one failed attempt per request.
//
// The state machine is the classic three-state one:
//
//	closed ──(FailureThreshold consecutive failures)──► open
//	open ──(cooldown elapses)──► half-open
//	half-open ──(probe succeeds)──► closed
//	half-open ──(probe fails)──► open
//
// with one deliberate twist: the cooldown can be counted in *rejected
// calls* (CooldownCalls) instead of wall-clock time. Event-counted
// cooldowns make the whole transition history a pure function of the
// request outcome sequence — no timers — which is what lets the chaos soak
// golden-lock its breaker log and replay it bit-identically across runs.
// Production configs use the wall-clock Cooldown; deterministic harnesses
// use CooldownCalls.
package client

import (
	"sync"
	"time"
)

// State is a breaker position.
type State int32

const (
	// Closed passes traffic and counts consecutive failures.
	Closed State = iota
	// Open refuses traffic until the cooldown elapses.
	Open
	// HalfOpen admits a limited number of trial requests.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "invalid"
	}
}

// BreakerConfig tunes one backend's breaker. The zero value gives the
// production defaults; Disabled turns the breaker into a pass-through
// (loadtest uses this: a saturated server answering 503s is the
// measurement, not a dead backend).
type BreakerConfig struct {
	// Disabled makes Allow always true and Record a no-op.
	Disabled bool
	// FailureThreshold is the consecutive-failure count that opens the
	// breaker (<=0: 3).
	FailureThreshold int
	// Cooldown is the wall-clock open→half-open delay. Ignored when
	// CooldownCalls > 0; defaults to 2 s when both are unset.
	Cooldown time.Duration
	// CooldownCalls, when > 0, counts the cooldown in rejected Allow calls
	// instead of wall-clock time: the N+1st call after opening is admitted
	// as the half-open trial. Deterministic — used by the chaos soak.
	CooldownCalls int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.Cooldown <= 0 && c.CooldownCalls <= 0 {
		c.Cooldown = 2 * time.Second
	}
	return c
}

// Transition reports one breaker state change. Cause is a short
// human-readable reason ("failures=3", "cooldown", "probe ok", …) that the
// chaos soak golden-locks.
type Transition struct {
	From, To State
	Cause    string
}

// Breaker is one backend's circuit breaker. Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    State
	fails    int       // consecutive failures while closed
	rejects  int       // calls refused since opening (event cooldown)
	openedAt time.Time // when the breaker last opened (time cooldown)
	inTrial  int       // outstanding half-open trials

	// onTransition, set by the pool, observes every state change. Called
	// with the breaker lock held so the transition order is exact; keep it
	// fast and never call back into the breaker.
	onTransition func(Transition)
}

// NewBreaker builds a breaker with the config's defaults applied.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// State reports the current position.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

func (b *Breaker) transition(to State, cause string) {
	if b.state == to {
		return
	}
	ev := Transition{From: b.state, To: to, Cause: cause}
	b.state = to
	if b.onTransition != nil {
		b.onTransition(ev)
	}
}

// Allow reports whether a request may be offered to the backend. In open
// state the refusal itself advances the event-counted cooldown; once the
// cooldown elapses the call is admitted as the half-open trial.
func (b *Breaker) Allow() bool {
	if b.cfg.Disabled {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.cfg.CooldownCalls > 0 {
			b.rejects++
			if b.rejects < b.cfg.CooldownCalls {
				return false
			}
		} else if time.Since(b.openedAt) < b.cfg.Cooldown {
			return false
		}
		b.transition(HalfOpen, "cooldown")
		b.inTrial = 1
		return true
	default: // HalfOpen
		if b.inTrial > 0 { // one half-open trial at a time
			return false
		}
		b.inTrial++
		return true
	}
}

// Success records a request the backend answered (any response proves the
// backend alive — a 4xx is the caller's bug, not the backend's).
func (b *Breaker) Success() {
	if b.cfg.Disabled {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case HalfOpen:
		b.reset()
		b.transition(Closed, "trial ok")
	case Closed:
		b.fails = 0
	}
}

// Failure records a transport error, timeout or 5xx.
func (b *Breaker) Failure() {
	if b.cfg.Disabled {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.fails++
		if b.fails >= b.cfg.FailureThreshold {
			b.open("failures=" + itoa(b.fails))
		}
	case HalfOpen:
		b.open("trial failed")
	}
}

// open (re)arms the cooldown. Caller holds the lock.
func (b *Breaker) open(cause string) {
	b.fails = 0
	b.rejects = 0
	b.inTrial = 0
	b.openedAt = time.Now()
	b.transition(Open, cause)
}

func (b *Breaker) reset() {
	b.fails = 0
	b.rejects = 0
	b.inTrial = 0
}

// Release returns an admitted-but-unresolved trial slot: the pool
// abandoned the attempt before the backend answered (hedge sibling won,
// or the slot was picked but never used), so the trial is neither a
// success nor a failure.
func (b *Breaker) Release() {
	if b.cfg.Disabled {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen && b.inTrial > 0 {
		b.inTrial--
	}
}

// Reset force-closes the breaker (a health probe saw the backend answer).
func (b *Breaker) Reset(cause string) {
	if b.cfg.Disabled {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.reset()
	b.transition(Closed, cause)
}

// itoa avoids strconv for the two-digit counts breakers deal in.
func itoa(n int) string {
	if n < 0 {
		return "-" + itoa(-n)
	}
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + string(rune('0'+n%10))
}
