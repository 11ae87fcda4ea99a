package client

import (
	"testing"
	"time"
)

// collect wires a transition recorder into b and returns the log.
func collect(b *Breaker) *[]Transition {
	log := &[]Transition{}
	b.onTransition = func(tr Transition) { *log = append(*log, tr) }
	return log
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, CooldownCalls: 2})
	log := collect(b)
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("failure %d: breaker refused while closed", i)
		}
		b.Failure()
		if got := b.State(); got != Closed {
			t.Fatalf("after %d failures: state = %v, want closed", i+1, got)
		}
	}
	b.Allow()
	b.Failure()
	if got := b.State(); got != Open {
		t.Fatalf("after 3 failures: state = %v, want open", got)
	}
	if len(*log) != 1 || (*log)[0].Cause != "failures=3" {
		t.Fatalf("transition log = %+v, want one closed->open (failures=3)", *log)
	}
}

func TestBreakerSuccessResetsFailureRun(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 2})
	b.Failure()
	b.Success() // breaks the run
	b.Failure()
	if got := b.State(); got != Closed {
		t.Fatalf("non-consecutive failures opened the breaker: state = %v", got)
	}
	b.Failure()
	if got := b.State(); got != Open {
		t.Fatalf("2 consecutive failures: state = %v, want open", got)
	}
}

func TestBreakerEventCooldownAndRecovery(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, CooldownCalls: 3})
	log := collect(b)
	b.Failure() // opens immediately
	for i := 0; i < 2; i++ {
		if b.Allow() {
			t.Fatalf("reject %d: breaker admitted during cooldown", i)
		}
	}
	// Third call after opening: admitted as the half-open trial.
	if !b.Allow() {
		t.Fatal("cooldown elapsed but trial refused")
	}
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	// Concurrent second trial is refused (one half-open trial at a time).
	if b.Allow() {
		t.Fatal("second concurrent half-open trial admitted")
	}
	b.Success()
	if got := b.State(); got != Closed {
		t.Fatalf("after trial ok: state = %v, want closed", got)
	}
	want := []Transition{
		{From: Closed, To: Open, Cause: "failures=1"},
		{From: Open, To: HalfOpen, Cause: "cooldown"},
		{From: HalfOpen, To: Closed, Cause: "trial ok"},
	}
	if len(*log) != len(want) {
		t.Fatalf("transition log = %+v, want %+v", *log, want)
	}
	for i := range want {
		if (*log)[i] != want[i] {
			t.Fatalf("transition %d = %+v, want %+v", i, (*log)[i], want[i])
		}
	}
}

func TestBreakerTrialFailureReopens(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, CooldownCalls: 1})
	b.Failure()
	if !b.Allow() { // first call after opening is the trial
		t.Fatal("trial refused")
	}
	b.Failure()
	if got := b.State(); got != Open {
		t.Fatalf("after trial failure: state = %v, want open", got)
	}
	// The cooldown re-armed: the next Allow is a fresh trial.
	if !b.Allow() {
		t.Fatal("re-armed cooldown did not admit a new trial")
	}
	b.Success()
	if got := b.State(); got != Closed {
		t.Fatalf("after second trial ok: state = %v, want closed", got)
	}
}

func TestBreakerWallClockCooldown(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: 10 * time.Millisecond})
	b.Failure()
	if b.Allow() {
		t.Fatal("admitted before cooldown elapsed")
	}
	time.Sleep(20 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("refused after cooldown elapsed")
	}
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
}

func TestBreakerRelease(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, CooldownCalls: 1})
	b.Failure()
	if !b.Allow() {
		t.Fatal("trial refused")
	}
	if b.Allow() {
		t.Fatal("second trial admitted while first outstanding")
	}
	b.Release() // the pool abandoned the trial attempt
	if !b.Allow() {
		t.Fatal("released trial slot not reusable")
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := NewBreaker(BreakerConfig{Disabled: true, FailureThreshold: 1})
	for i := 0; i < 10; i++ {
		b.Failure()
		if !b.Allow() {
			t.Fatal("disabled breaker refused traffic")
		}
	}
	if got := b.State(); got != Closed {
		t.Fatalf("disabled breaker left closed state: %v", got)
	}
}

func TestBreakerReset(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, CooldownCalls: 100})
	log := collect(b)
	b.Failure()
	b.Reset("probe ok")
	if got := b.State(); got != Closed {
		t.Fatalf("after Reset: state = %v, want closed", got)
	}
	if !b.Allow() {
		t.Fatal("reset breaker refused traffic")
	}
	if n := len(*log); n != 2 || (*log)[1].Cause != "probe ok" {
		t.Fatalf("transition log = %+v, want open then closed (probe ok)", *log)
	}
}
