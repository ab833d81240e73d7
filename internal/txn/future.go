package txn

import (
	"errors"
	"sync/atomic"
	"time"

	"pacman/internal/engine"
)

// ErrDeadlineExceeded resolves a future whose per-request deadline passed
// before the transaction's commit became durable. The contract is one-sided:
// a future that has already resolved with a durable ack is never
// retroactively failed (first resolution wins), but a deadline-exceeded
// resolution says nothing about execution — the transaction may have
// committed in memory and may still become durable after the caller has
// given up. Callers that need to know must treat it like a connection loss:
// executed-maybe, acked-no.
var ErrDeadlineExceeded = errors.New("txn: deadline exceeded")

// Future is the durable-commit handle of one asynchronously submitted
// transaction. Under epoch-based group commit a transaction's execution
// finishes long before its result is durable: the commit record sits in the
// worker buffer until a logger flushes its epoch and the persistent epoch
// (pepoch) covers it. A Future separates the two moments — it is returned
// as soon as execution completes and resolves when the transaction's epoch
// is group-commit released, or with an error when execution fails or the
// instance crashes/closes before the commit becomes durable.
//
// A future may carry a deadline (NewFutureDeadline + Arm): if it has not
// resolved when the deadline passes, it resolves with ErrDeadlineExceeded —
// whether the request is still queued, executing, or parked in the
// durability pipeline behind a slow device. Expiry races resolution on the
// same first-wins CAS, so a durable ack that lands first sticks.
//
// The result accessors (Wait, TS, Err, ExecAt, DurableAt and the latency
// helpers) block until resolution; Done exposes the resolution channel for
// select-based waiting. A Future resolves exactly once and is safe for
// concurrent use.
type Future struct {
	start    time.Time
	deadline time.Time // zero = no deadline; immutable once the future is shared
	done     chan struct{}
	state    atomic.Uint32
	timer    atomic.Pointer[time.Timer] // expiry timer; set by Arm

	// Written by MarkExecuted on the execution goroutine before the commit
	// record is published to the durability pipeline. Atomic because a
	// deadline expiry can resolve the future while execution is still in
	// flight, letting a waiter read concurrently with MarkExecuted.
	ts     atomic.Uint64 // engine.TS
	execAt atomic.Int64  // unix nanos; 0 = never executed

	// Written by Resolve before done is closed.
	durableAt time.Time
	err       error
}

// NewFuture creates an unresolved future stamped with the submission time.
func NewFuture(start time.Time) *Future {
	return &Future{start: start, done: make(chan struct{})}
}

// NewFutureDeadline creates an unresolved future carrying a per-request
// deadline (zero means none). The deadline is advisory until Arm starts
// enforcement; admission paths use Deadline/Expired to shed before that.
func NewFutureDeadline(start, deadline time.Time) *Future {
	return &Future{start: start, deadline: deadline, done: make(chan struct{})}
}

// Deadline returns the request deadline (zero when none). Valid at any time.
func (f *Future) Deadline() time.Time { return f.deadline }

// Expired reports whether the future carries a deadline that now is at or
// past. It does not resolve the future.
func (f *Future) Expired(now time.Time) bool {
	return !f.deadline.IsZero() && !now.Before(f.deadline)
}

// Expire resolves the future with ErrDeadlineExceeded if its deadline has
// passed and it has not already resolved. It returns true when this call
// performed the expiry. Safe to call from any checkpoint on the request
// path (queue entry, execution start, durability release scan).
func (f *Future) Expire(now time.Time) bool {
	if !f.Expired(now) || f.Resolved() {
		return false
	}
	if !f.state.CompareAndSwap(0, 1) {
		return false
	}
	f.durableAt = now
	f.err = ErrDeadlineExceeded
	close(f.done)
	return true
}

// Arm starts deadline enforcement: a timer resolves the future with
// ErrDeadlineExceeded when the deadline passes first. Resolve stops the
// timer on the winning path. The pointer is atomic because a tiny deadline
// can fire the callback before the store lands — the callback then finds
// nil and skips the Stop, which is harmless (the timer already fired). A
// future without a deadline is untouched.
func (f *Future) Arm() {
	if f.deadline.IsZero() || f.Resolved() {
		return
	}
	d := time.Until(f.deadline)
	if d <= 0 {
		f.Expire(time.Now())
		return
	}
	f.timer.Store(time.AfterFunc(d, func() { f.Resolve(time.Now(), ErrDeadlineExceeded) }))
}

// MarkExecuted records the execution outcome — commit timestamp and commit
// wall-clock time — leaving the future unresolved until the durability
// pipeline releases it. It is called by the execution path only, before the
// commit record is handed to the loggers.
func (f *Future) MarkExecuted(ts engine.TS, execAt time.Time) {
	f.ts.Store(ts)
	f.execAt.Store(execAt.UnixNano())
}

// Resolve completes the future: a nil err means the transaction's epoch is
// durable (group-commit released). The first call wins; later calls are
// ignored, so a release racing a crash (or a deadline expiry racing a
// durable ack) still resolves exactly once.
func (f *Future) Resolve(durableAt time.Time, err error) {
	if !f.state.CompareAndSwap(0, 1) {
		return
	}
	if t := f.timer.Load(); t != nil {
		t.Stop()
	}
	f.durableAt = durableAt
	f.err = err
	close(f.done)
}

// Done returns a channel that is closed when the future resolves.
func (f *Future) Done() <-chan struct{} { return f.done }

// Resolved reports, without blocking, whether the future has resolved. The
// commit-record recycler uses it to guarantee a pooled Committed can never
// be reused while a client may still be waiting on it.
func (f *Future) Resolved() bool { return f.state.Load() != 0 }

// Wait blocks until resolution and returns the commit timestamp and the
// terminal error (nil means executed and durable).
func (f *Future) Wait() (engine.TS, error) {
	<-f.done
	return f.ts.Load(), f.err
}

// TS blocks until resolution and returns the commit timestamp (zero when
// execution failed).
func (f *Future) TS() engine.TS {
	<-f.done
	return f.ts.Load()
}

// Err blocks until resolution and returns the terminal error.
func (f *Future) Err() error {
	<-f.done
	return f.err
}

// Epoch blocks until resolution and returns the commit epoch (zero when
// execution failed).
func (f *Future) Epoch() uint32 {
	<-f.done
	return engine.EpochOf(f.ts.Load())
}

// Start returns the submission time. It is valid before resolution.
func (f *Future) Start() time.Time { return f.start }

// ExecAt blocks until resolution and returns when execution committed (zero
// when execution failed or the future expired before execution).
func (f *Future) ExecAt() time.Time {
	<-f.done
	n := f.execAt.Load()
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// DurableAt blocks until resolution and returns when the commit was
// group-commit released (for an errored future: when the error was known).
func (f *Future) DurableAt() time.Time {
	<-f.done
	return f.durableAt
}

// ExecLatency blocks until resolution and returns submit-to-commit latency
// (zero when execution failed).
func (f *Future) ExecLatency() time.Duration {
	<-f.done
	n := f.execAt.Load()
	if n == 0 {
		return 0
	}
	return time.Unix(0, n).Sub(f.start)
}

// DurableLatency blocks until resolution and returns the end-to-end
// submit-to-durability latency (zero for errored futures).
func (f *Future) DurableLatency() time.Duration {
	<-f.done
	if f.err != nil || f.durableAt.IsZero() {
		return 0
	}
	return f.durableAt.Sub(f.start)
}
