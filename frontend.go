package pacman

import (
	"fmt"
	"time"

	"pacman/internal/frontend"
	"pacman/internal/txn"
)

// ErrFrontendClosed resolves Futures submitted to a closed Frontend. It is
// deliberately distinct from ErrClosed/ErrCrashed: a Future carrying
// ErrFrontendClosed was rejected at the queue and NEVER executed, while
// the other two mean the transaction executed but missed durability.
var ErrFrontendClosed = frontend.ErrClosed

// FrontendConfig tunes a Frontend.
type FrontendConfig struct {
	// Workers is the session-pool size client requests are multiplexed
	// onto (default 4).
	Workers int
	// Queue is the submission-queue capacity. A full queue blocks Submit
	// (backpressure) instead of buffering without bound (default
	// 4×Workers).
	Queue int
}

// Frontend is the multiplexing client surface: any number of concurrent
// goroutines submit stored-procedure invocations through a bounded queue
// onto a fixed session pool. SubmitRequest returns a durable-commit Future;
// its Wait blocks until group-commit release.
// The Frontend heartbeats its idle sessions internally, so callers never
// touch Session.Heartbeat, and Close drains the queue before retiring the
// pool.
type Frontend struct {
	d  *DB
	fe *frontend.Frontend
}

// NewFrontend creates a frontend over a started database, or returns
// ErrNotStarted. Instances returned by Launch and Restart are already
// started, so a Frontend works immediately — including right after a crash
// recovery, where new submissions commit with timestamps above the
// recovered high-water mark and append to the same log devices.
func (d *DB) NewFrontend(cfg FrontendConfig) (*Frontend, error) {
	if !d.started {
		return nil, ErrNotStarted
	}
	fe := frontend.New(d.mgr, d.logset, frontend.Config{
		Workers: cfg.Workers,
		Queue:   cfg.Queue,
	})
	// Join the health watchdog's brownout fan-out (a frontend created
	// mid-brownout starts shedding immediately).
	d.registerFrontend(fe)
	return &Frontend{d: d, fe: fe}, nil
}

// MustFrontend is NewFrontend that panics on error — the panicking twin,
// matching the Must* constructor convention.
func (d *DB) MustFrontend(cfg FrontendConfig) *Frontend {
	fe, err := d.NewFrontend(cfg)
	if err != nil {
		panic(err)
	}
	return fe
}

// Mode picks the log record a request's commit produces under command
// logging: ModeCommand logs the invocation, ModeAdHoc and ModeDist log
// tuple values (Section 4.5).
type Mode = txn.Mode

// Submission modes.
const (
	// ModeCommand is an ordinary stored-procedure invocation.
	ModeCommand = txn.Command
	// ModeAdHoc is an ad-hoc transaction: tuple-level logging even under
	// command logging.
	ModeAdHoc = txn.AdHoc
	// ModeDist is a distributed transaction, one of the 2PC pieces a shard
	// router drives a cross-shard commit through. Its effects are logged as
	// values even under command logging, so this shard's replay never
	// re-executes it (its inputs may have come from another shard).
	ModeDist = txn.Dist
)

// ErrQueueFull resolves a NoWait request that found the submission queue
// full. The request was never executed and is always safe to resubmit;
// pacmand answers it with a backpressure frame.
var ErrQueueFull = frontend.ErrQueueFull

// Request is one submission to a Frontend.
type Request struct {
	// Proc names the stored procedure; Args are its parameters.
	Proc string
	Args Args
	// Mode picks the log record type. Procedures in
	// Options.ValueLogProcs are submitted as ModeDist whatever it says.
	Mode Mode
	// Deadline, when non-zero, bounds the request. If the commit is not
	// durably acknowledged by then the Future resolves ErrDeadlineExceeded
	// — at admission when the deadline has already passed, at execution
	// start when it expired in the queue, or in the durability pipeline
	// when group commit cannot release it in time. A durable ack that lands
	// first always wins: an acknowledged Future is never retroactively
	// failed. Like a connection loss, ErrDeadlineExceeded leaves execution
	// state unknown — the transaction may still commit durably after the
	// caller has given up.
	Deadline time.Time
	// NoWait makes admission non-blocking: when the submission queue is
	// full the Future resolves ErrQueueFull at once instead of Submit
	// blocking, and the caller decides whether to retry, shed load, or
	// surface backpressure.
	NoWait bool
}

// SubmitRequest queues one request and returns its durable-commit Future.
// It blocks only when the submission queue is full and NoWait is unset. A
// request that is not admitted (unknown procedure, closed frontend,
// brownout, expired deadline, full queue under NoWait) gets a Future
// already resolved with the reason.
func (f *Frontend) SubmitRequest(r Request) *Future {
	c := f.d.reg.ByName(r.Proc)
	if c == nil {
		fut := txn.NewFuture(time.Now())
		fut.Resolve(time.Now(), fmt.Errorf("pacman: unknown procedure %q", r.Proc))
		return fut
	}
	if f.d.valueLog[r.Proc] {
		// Adaptive logging policy: this procedure always logs values.
		r.Mode = ModeDist
	}
	return f.fe.Submit(frontend.Request{P: c, Args: r.Args, Mode: r.Mode, Deadline: r.Deadline, NoWait: r.NoWait})
}

// Submit is SubmitRequest for a plain invocation.
func (f *Frontend) Submit(name string, args Args) *Future {
	return f.SubmitRequest(Request{Proc: name, Args: args})
}

// SubmitWithin is Submit with a deadline timeout from now.
func (f *Frontend) SubmitWithin(name string, args Args, timeout time.Duration) *Future {
	return f.SubmitRequest(Request{Proc: name, Args: args, Deadline: time.Now().Add(timeout)})
}

// Brownout reports whether this frontend is currently shedding new work
// under the health watchdog's brownout (new submissions resolve
// ErrBrownout; queued work still executes).
func (f *Frontend) Brownout() bool { return f.fe.Brownout() }

// ShedStats returns how many requests this frontend shed, split by
// checkpoint: deadline-expired at admission, deadline-expired at dequeue
// (never executed), and brownout rejections.
func (f *Frontend) ShedStats() ShedStats { return f.fe.ShedStats() }

// ShedStats is a Frontend's shed-counter snapshot.
type ShedStats = frontend.Shed

// QueueDepth returns the submission queue's current occupancy; paired with
// QueueCap it is the admission-control signal network backpressure keys
// off.
func (f *Frontend) QueueDepth() int { return f.fe.Depth() }

// QueueCap returns the submission queue's capacity.
func (f *Frontend) QueueCap() int { return f.fe.Capacity() }

// Sessions returns the pool size (the number of sessions client goroutines
// share).
func (f *Frontend) Sessions() int { return len(f.fe.Workers()) }

// Scan runs a consistent snapshot scan over table, calling fn in key order
// for every row with key in [lo, hi) that was visible at the cut, until fn
// returns false. The cut is the newest released epoch (returned), so every
// committed-and-released transaction at or below it is fully visible and
// nothing newer leaks in. The scan reads outside OCC entirely: it takes no
// latches, joins no validation, and can never abort a concurrent writer —
// run it as long as you like under full OLTP load (the pinned epoch merely
// holds version garbage collection back until the scan finishes).
func (f *Frontend) Scan(table string, lo, hi uint64, fn func(key uint64, row Tuple) bool) (epoch uint32, err error) {
	t := f.d.db.Table(table)
	if t == nil {
		return 0, fmt.Errorf("pacman: unknown table %q", table)
	}
	v, err := f.d.SnapshotView(0)
	if err != nil {
		return 0, err
	}
	defer v.Close()
	v.Scan(t, lo, hi, fn)
	return v.Epoch(), nil
}

// Close drains queued submissions, rejects late ones with
// ErrFrontendClosed, and retires the session pool. Futures of drained work
// resolve through the normal release path.
func (f *Frontend) Close() {
	f.d.dropFrontend(f.fe)
	f.fe.Close()
}
