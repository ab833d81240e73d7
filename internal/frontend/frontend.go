// Package frontend multiplexes many concurrent client goroutines onto a
// bounded pool of transaction workers. Clients hand stored-procedure
// invocations to a submission queue and get a durable-commit future back;
// pool workers execute them and the wal release path resolves the futures
// as epochs are group-commit released. The pool owns the SiloR liveness
// contract internally — idle workers heartbeat on a ticker so group commit
// never stalls on an idle session — which removes the caller-visible
// Heartbeat footgun from the happy path.
//
// Submission is per-core: each pool worker owns a bounded queue, submitters
// spread requests round-robin across the queues, and an idle worker steals
// from its peers before parking (the Cicada per-thread-context idiom — no
// single shared channel serializes admission at high worker counts). The
// total capacity is still bounded: when every queue is full, Submit blocks
// (backpressure) instead of growing without bound. Close drains every
// queue: submissions already queued are executed, late submissions resolve
// with ErrClosed, and the pool's workers are retired so the safe epoch can
// advance past their last commits.
//
// The pool is also what makes the commit hot path's recycled buffers safe:
// each pool goroutine is the sole executor on its txn.Worker, so the
// worker's transaction scratch (read/write sets, reused across retries and
// transactions) is never aliased, and the commit records it emits flow
// worker buffer → logger → release without copies — resolved futures are
// the only client-visible artifact, and the wal release path recycles the
// records after resolving them (see internal/txn's pool).
package frontend

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"pacman/internal/proc"
	"pacman/internal/txn"
	"pacman/internal/wal"
)

// ErrClosed resolves futures submitted to a closed (or closing) frontend.
var ErrClosed = errors.New("frontend: closed")

// ErrBrownout resolves futures submitted while the health watchdog holds
// the instance in brownout: some component (a device, the epoch clock, the
// queue itself) is outside its liveness budget, so new work is shed at
// admission — before execution — instead of piling onto the slow path.
// Brownout-shed requests never execute; retry after backoff.
var ErrBrownout = errors.New("frontend: brownout, shedding new work")

// ErrQueueFull resolves a NoWait submission that found every queue full.
// The request was never executed and is always safe to resubmit.
var ErrQueueFull = errors.New("frontend: queue full")

// Config tunes a Frontend.
type Config struct {
	// Workers is the pool size: the number of transaction workers client
	// requests are multiplexed onto (default 4). Each worker owns one
	// submission queue.
	Workers int
	// Queue is the total submission capacity, split evenly across the
	// per-worker queues (each gets at least 1 slot); when every queue is
	// full, Submit blocks (default 32×Workers, from the sweep recorded in
	// docs/ARCHITECTURE.md's knob table).
	Queue int
}

// Request is one submission: the procedure and its arguments, the log
// record mode, an optional deadline, and whether a full queue refuses
// (NoWait) instead of blocking.
type Request struct {
	P    *proc.Compiled
	Args proc.Args
	Mode txn.Mode
	// Deadline, when non-zero, bounds the request: if its commit is not
	// durable by then the future resolves ErrDeadlineExceeded — at
	// admission, at dequeue, or in the durability pipeline. A durable ack
	// that lands first is never retroactively failed.
	Deadline time.Time
	// NoWait makes admission non-blocking: when every queue is full the
	// future resolves ErrQueueFull at once. The network server uses it to
	// turn a full queue into a backpressure frame instead of blocking the
	// connection's reader goroutine.
	NoWait bool
}

// request is a Request admitted to a queue.
type request struct {
	p    *proc.Compiled
	args proc.Args
	mode txn.Mode
	fut  *txn.Future
}

// Frontend is a bounded worker pool over per-worker submission queues with
// work stealing.
type Frontend struct {
	// queues[i] is owned by pool worker i: the owner dequeues it first,
	// peers steal from it when their own queues are empty. Submitters
	// spread round-robin (rr) and fall into any queue with space, so one
	// busy owner never wedges admission.
	queues []chan request
	rr     atomic.Uint32
	// wake is a one-token nudge channel: every enqueue posts a token so a
	// parked worker re-runs its steal scan; a worker that steals re-posts
	// the token (baton passing) so bursts cascade through the pool.
	wake    chan struct{}
	closing chan struct{} // closed first: rejects new submissions
	drainCh chan struct{} // closed once submitters settle: workers drain and exit

	// closeMu orders submitters against Close: a submitter holds the read
	// lock across its closed-check and submitWG.Add, Close flips closed
	// under the write lock before waiting — so submitWG.Add can never
	// start once submitWG.Wait has (the WaitGroup contract for adds that
	// begin at counter zero).
	closeMu  sync.RWMutex
	submitWG sync.WaitGroup // in-flight Submit calls
	workerWG sync.WaitGroup
	closed   atomic.Bool

	workers   []*txn.Worker
	steals    atomic.Int64
	hbEvery   time.Duration
	closeOnce sync.Once

	// Gray-failure admission control. brownout is flipped by the health
	// watchdog; the shed counters split rejected work by where it was shed
	// (admission deadline, dequeue deadline, brownout). lastMove feeds the
	// watchdog's queue-stall signal, aggregated across every queue:
	// lastMove is GLOBAL — any enqueue or dequeue on any queue resets it —
	// so a single idle-but-nonempty queue cannot latch the stall signal
	// while its peers make progress (stealing guarantees a request can
	// only stay stuck when the whole pool is wedged).
	brownout  atomic.Bool
	shedAdmit atomic.Int64
	shedQueue atomic.Int64
	shedBrown atomic.Int64
	lastMove  atomic.Int64 // unix nanos of the last enqueue or dequeue, any queue
}

// New builds a frontend over the manager's execution path. Pool workers are
// created and attached to the log set (when non-nil) immediately; the pool
// goroutines start running before New returns.
func New(mgr *txn.Manager, ls *wal.LogSet, cfg Config) *Frontend {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 32 * cfg.Workers
	}
	// Idle workers heartbeat at half the epoch interval.
	hbEvery := mgr.Config().EpochInterval / 2
	if hbEvery <= 0 {
		hbEvery = time.Millisecond
	}
	perQueue := cfg.Queue / cfg.Workers
	if perQueue < 1 {
		perQueue = 1
	}
	f := &Frontend{
		queues:  make([]chan request, cfg.Workers),
		wake:    make(chan struct{}, 1),
		closing: make(chan struct{}),
		drainCh: make(chan struct{}),
		hbEvery: hbEvery,
	}
	for i := range f.queues {
		f.queues[i] = make(chan request, perQueue)
	}
	f.lastMove.Store(time.Now().UnixNano())
	for i := 0; i < cfg.Workers; i++ {
		w := mgr.NewWorker()
		if ls != nil {
			ls.AttachWorker(w)
		}
		f.workers = append(f.workers, w)
	}
	for i, w := range f.workers {
		f.workerWG.Add(1)
		go f.run(i, w)
	}
	return f
}

// nudge posts the one-token wake signal; a no-op when the token is already
// pending (a single token is enough — woken workers re-post it while they
// keep finding work).
func (f *Frontend) nudge() {
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

// steal scans every peer queue (starting after self) for one request.
func (f *Frontend) steal(self int) (request, bool) {
	n := len(f.queues)
	for j := 1; j < n; j++ {
		select {
		case r := <-f.queues[(self+j)%n]:
			return r, true
		default:
		}
	}
	return request{}, false
}

// run is pool worker self: drain the owned queue first, steal from peers
// when it is empty, heartbeat while idle, and on shutdown drain every queue
// before exiting.
func (f *Frontend) run(self int, w *txn.Worker) {
	defer f.workerWG.Done()
	own := f.queues[self]
	hb := time.NewTicker(f.hbEvery)
	defer hb.Stop()
	for {
		// Fast path: the owned queue, without blocking.
		select {
		case r := <-own:
			f.handle(w, r)
			continue
		default:
		}
		if r, ok := f.steal(self); ok {
			f.steals.Add(1)
			// Pass the baton before executing: peers may hold more work
			// and this worker is about to go busy.
			f.nudge()
			f.handle(w, r)
			continue
		}
		select {
		case r := <-own:
			f.handle(w, r)
		case <-f.wake:
			// An enqueue landed somewhere; loop to re-run the steal scan.
		case <-hb.C:
			// Safe: this goroutine has no transaction in flight here.
			w.Heartbeat()
		case <-f.drainCh:
			f.drain(w)
			return
		}
	}
}

// drain empties every queue (not just the owned one): workers race over the
// remaining requests until a full sweep finds all queues empty. Submitters
// have settled by the time drainCh closes, so the sweep terminates.
func (f *Frontend) drain(w *txn.Worker) {
	for {
		progress := false
		for _, q := range f.queues {
			select {
			case r := <-q:
				f.handle(w, r)
				progress = true
			default:
			}
		}
		if !progress {
			return
		}
	}
}

func (f *Frontend) handle(w *txn.Worker, r request) {
	now := time.Now()
	f.lastMove.Store(now.UnixNano())
	// Deadline check at execution start: a request whose deadline passed
	// while it sat in the queue (or whose expiry timer already fired) is
	// shed here — it never executes, so the caller's typed error is the
	// whole story for this request.
	if r.fut.Expire(now) || r.fut.Resolved() {
		f.shedQueue.Add(1)
		return
	}
	w.ExecuteFuture(r.fut, r.p, r.args, r.mode)
}

// admit runs the shared admission checks — deadline at queue entry,
// brownout shedding, closed frontend — resolving the future and returning
// false when the request must not enter the queue. On true the future's
// expiry timer is armed and the caller holds a submitWG slot.
func (f *Frontend) admit(fut *txn.Future, now time.Time) bool {
	if fut.Expire(now) {
		f.shedAdmit.Add(1)
		return false
	}
	if f.brownout.Load() {
		f.shedBrown.Add(1)
		fut.Resolve(now, ErrBrownout)
		return false
	}
	f.closeMu.RLock()
	if f.closed.Load() {
		f.closeMu.RUnlock()
		fut.Resolve(time.Now(), ErrClosed)
		return false
	}
	f.submitWG.Add(1)
	f.closeMu.RUnlock()
	// Arm expiry before the future is shared with a pool worker, so a
	// request can never sit in the queue with an unenforced deadline.
	fut.Arm()
	return true
}

// offer tries every queue for space without blocking, starting at home.
func (f *Frontend) offer(r request, home int) bool {
	n := len(f.queues)
	for j := 0; j < n; j++ {
		select {
		case f.queues[(home+j)%n] <- r:
			f.lastMove.Store(time.Now().UnixNano())
			f.nudge()
			return true
		default:
		}
	}
	return false
}

// Submit queues one request and returns its durable-commit future. It
// blocks only for queue space (backpressure), and not even then with
// NoWait; never for execution or durability. A request that is not
// admitted — closed frontend, brownout, expired deadline, or a full queue
// under NoWait — gets a future already resolved with the typed error.
func (f *Frontend) Submit(r Request) *txn.Future {
	now := time.Now()
	fut := txn.NewFutureDeadline(now, r.Deadline)
	if !f.admit(fut, now) {
		return fut
	}
	defer f.submitWG.Done()
	q := request{p: r.P, args: r.Args, mode: r.Mode, fut: fut}
	home := int(f.rr.Add(1)-1) % len(f.queues)
	if f.offer(q, home) {
		return fut
	}
	if r.NoWait {
		// Never shared with a pool worker; Resolve also stops the expiry
		// timer admit armed.
		fut.Resolve(time.Now(), ErrQueueFull)
		return fut
	}
	// Every queue full: block on the home queue (backpressure). Stealing
	// keeps the home queue draining even when its owner is wedged, so
	// blocking on one queue cannot outlive the pool itself.
	select {
	case f.queues[home] <- q:
		f.lastMove.Store(time.Now().UnixNano())
		f.nudge()
	case <-f.closing:
		fut.Resolve(time.Now(), ErrClosed)
	}
	return fut
}

// SetBrownout flips brownout shedding on or off. While on, new submissions
// resolve ErrBrownout at admission instead of entering the queue; work
// already queued still executes. The health watchdog drives this from its
// state transitions.
func (f *Frontend) SetBrownout(on bool) { f.brownout.Store(on) }

// Brownout reports whether the frontend is currently shedding new work.
func (f *Frontend) Brownout() bool { return f.brownout.Load() }

// Shed is the frontend's shed-counter snapshot, split by checkpoint.
type Shed struct {
	// Admission: deadline already expired at queue entry.
	Admission int64 `json:"admission"`
	// Queue: deadline expired while queued; shed at dequeue, never executed.
	Queue int64 `json:"queue"`
	// Brownout: rejected because the watchdog held the instance in brownout.
	Brownout int64 `json:"brownout"`
}

// ShedStats returns how many requests were shed, and where.
func (f *Frontend) ShedStats() Shed {
	return Shed{
		Admission: f.shedAdmit.Load(),
		Queue:     f.shedQueue.Load(),
		Brownout:  f.shedBrown.Load(),
	}
}

// QueueStall returns how long the queues have gone without any movement
// (enqueue or dequeue on ANY queue) while work is pending — zero when all
// queues are empty. It catches every pool worker wedged behind a gray
// component, so nothing dequeues anywhere. The signal is deliberately
// global: one non-empty queue whose owner is busy does NOT trip it while
// peers make progress, because work stealing guarantees such a request is
// picked up as soon as any worker goes idle — evidence of a stall on one
// queue is stale unless the whole pool has stopped moving.
func (f *Frontend) QueueStall(now time.Time) time.Duration {
	if f.Depth() == 0 {
		return 0
	}
	return now.Sub(time.Unix(0, f.lastMove.Load()))
}

// Depth returns the total occupancy across the per-worker submission
// queues — the admission-control signal backpressure decisions key off.
func (f *Frontend) Depth() int {
	d := 0
	for _, q := range f.queues {
		d += len(q)
	}
	return d
}

// Capacity returns the total submission capacity across the per-worker
// queues.
func (f *Frontend) Capacity() int {
	c := 0
	for _, q := range f.queues {
		c += cap(q)
	}
	return c
}

// Workers returns the pool's worker handles (tests and instrumentation).
func (f *Frontend) Workers() []*txn.Worker {
	return append([]*txn.Worker(nil), f.workers...)
}

// Steals returns how many requests were executed by a worker other than
// the owner of the queue they were submitted to.
func (f *Frontend) Steals() int64 { return f.steals.Load() }

// Close drains and shuts the pool down: new submissions resolve with
// ErrClosed, requests already queued are executed, and the pool workers are
// retired once idle so group commit advances past their final epochs. Close
// does not wait for the drained requests' durability — their futures
// resolve through the normal release path (or the log set's Close/Abort).
func (f *Frontend) Close() {
	f.closeOnce.Do(func() {
		f.closeMu.Lock()
		f.closed.Store(true)
		f.closeMu.Unlock()
		close(f.closing)
		// Wait out in-flight Submit calls: each has either enqueued (the
		// drain below will run it) or been rejected via the closing channel.
		f.submitWG.Wait()
		close(f.drainCh)
		f.workerWG.Wait()
		for _, w := range f.workers {
			w.Retire()
		}
	})
}
