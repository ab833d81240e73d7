package shard

import (
	"errors"
	"fmt"
	"sync"

	"pacman/internal/txn"
	"pacman/internal/wire"

	"pacman/client"
)

// ErrShardUnavailable fails requests routed at a shard whose circuit
// breaker is open: the shard has stopped answering (hung, partitioned, or
// drowning in a gray fault), so the router sheds instead of queueing work
// behind it. It wraps wire.ErrBackpressure — the request was never
// executed, so clients may safely retry elsewhere or later.
var ErrShardUnavailable = fmt.Errorf("shard: participant unavailable (circuit open): %w", wire.ErrBackpressure)

// breaker state machine: closed (normal) → open (shedding) on Threshold
// consecutive transport failures; open → half-open when the router's
// prober sees the shard answer a Ping again; half-open admits one trial
// request — success closes the breaker, failure re-opens it.
const (
	breakerClosed int32 = iota
	breakerOpen
	breakerHalfOpen
)

func breakerStateName(s int32) string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("breaker(%d)", s)
	}
}

// breaker is one shard's circuit breaker. Only transport-liveness failures
// (connection lost, deadline expired with no answer) count toward the
// threshold: an abort or a procedure error is a healthy shard answering
// quickly. The breaker gates NEW admissions only — decided 2PC deliveries
// bypass it, because a decision must eventually reach every participant.
type breaker struct {
	threshold int

	mu       sync.Mutex
	state    int32
	fails    int
	trialing bool // half-open: one trial request in flight
}

func newBreaker(threshold int) *breaker {
	if threshold <= 0 {
		threshold = 3
	}
	return &breaker{threshold: threshold}
}

// allow reports whether a new request may be routed at this shard. In
// half-open it admits exactly one concurrent trial.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerHalfOpen:
		if b.trialing {
			return false
		}
		b.trialing = true
		return true
	default:
		return false
	}
}

// observe feeds one request outcome back. Returns the (from, to) states
// when the outcome caused a transition, or ("", "") otherwise.
func (b *breaker) observe(failure bool) (from, to string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	prev := b.state
	b.trialing = false
	if !failure {
		b.fails = 0
		b.state = breakerClosed
	} else {
		b.fails++
		if b.state == breakerHalfOpen || (b.state == breakerClosed && b.fails >= b.threshold) {
			b.state = breakerOpen
		}
	}
	if b.state == prev {
		return "", ""
	}
	return breakerStateName(prev), breakerStateName(b.state)
}

// release abandons a half-open trial slot without judging the shard (the
// request was never actually sent).
func (b *breaker) release() {
	b.mu.Lock()
	b.trialing = false
	b.mu.Unlock()
}

// halfOpen moves an open breaker to half-open (probe answered). Returns
// true if it transitioned.
func (b *breaker) halfOpen() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerOpen {
		return false
	}
	b.state = breakerHalfOpen
	b.trialing = false
	return true
}

func (b *breaker) current() int32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// breakerFailure classifies a backside request outcome for the breaker:
// only "the shard did not answer" outcomes count — a lost connection, or a
// deadline that expired without a result. Aborts, unknown procedures, and
// other typed errors are a live shard talking.
func breakerFailure(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, client.ErrConnLost) || errors.Is(err, txn.ErrDeadlineExceeded)
}
