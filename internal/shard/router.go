package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pacman"
	"pacman/client"
	"pacman/internal/proc"
	"pacman/internal/simdisk"
	"pacman/internal/txn"
	"pacman/internal/wire"
)

// RouterConfig tunes a Router. The zero value of every field has a working
// default.
type RouterConfig struct {
	// QueueCap bounds concurrently dispatched requests; beyond it the
	// router's frontside answers with backpressure (default 1024).
	QueueCap int
	// RetryBackoff paces decide re-delivery to a shard that is down or
	// restarting (default 5ms).
	RetryBackoff time.Duration
	// CallTimeout, when positive, is the default per-request deadline
	// applied to backside forwards and 2PC prepares when the client did not
	// supply one. It is what lets the breaker see a hung shard: without a
	// deadline a wedged participant just blocks forever. Zero preserves the
	// unbounded legacy behavior.
	CallTimeout time.Duration
	// BreakerThreshold is how many consecutive transport failures (lost
	// connection, deadline expiry with no answer) open a shard's circuit
	// breaker (default 3).
	BreakerThreshold int
	// BreakerProbe is the cadence at which open breakers' shards are pinged;
	// an answered probe half-opens the breaker so one trial request can
	// close it (default 50ms).
	BreakerProbe time.Duration
	// Logf, when set, receives routing and 2PC diagnostics.
	Logf func(format string, args ...any)
}

// Router is the cluster's routing coordinator. Frontside it implements
// wire.Backend, so a wire.Server attached to it speaks ordinary PAC1 to
// clients; backside it holds one pipelined client per shard (a
// client.Multi, ideally dialed with KeepAlive so dead shards surface
// fast). Single-shard invocations are forwarded untouched; cross-shard
// ones run the epoch-aligned two-phase commit, with the decision log on
// dev making the router itself crash-recoverable.
//
// The Router takes ownership of the Multi: Close closes it.
type Router struct {
	cluster *Cluster
	multi   *client.Multi
	log     *coordLog
	cfg     RouterConfig

	nextGTID atomic.Uint64
	inflight atomic.Int64
	bg       atomic.Int64 // background decide deliveries in flight
	closed   atomic.Bool
	wg       sync.WaitGroup

	// breakers holds one circuit breaker per shard; the prober goroutine
	// pings open breakers' shards and half-opens them when a Pong proves
	// the shard answers again.
	breakers  []*breaker
	lastPongs []uint64
	probing   []atomic.Bool
	probeStop chan struct{}
	probeDone chan struct{}
}

// ErrRouterClosed resolves requests dispatched to (or in flight on) a
// closed router.
var ErrRouterClosed = errors.New("shard: router closed")

// NewRouter builds the coordinator over an already-dialed Multi (one
// endpoint per shard, in shard order) and a decision-log device. Before
// returning it resolves every in-doubt transaction found in the decision
// log — aborting undecided ones, re-delivering decided commits — so no
// shard is left with a dangling prepare from a previous router
// incarnation.
func NewRouter(c *Cluster, multi *client.Multi, dev *simdisk.Device, cfg RouterConfig) (*Router, error) {
	if multi.Len() != c.cfg.Shards {
		return nil, fmt.Errorf("shard: cluster has %d shards but %d endpoints dialed", c.cfg.Shards, multi.Len())
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 1024
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 5 * time.Millisecond
	}
	if cfg.BreakerProbe <= 0 {
		cfg.BreakerProbe = 50 * time.Millisecond
	}
	log, pending, maxGTID, err := openCoordLog(dev)
	if err != nil {
		return nil, err
	}
	r := &Router{
		cluster:   c,
		multi:     multi,
		log:       log,
		cfg:       cfg,
		breakers:  make([]*breaker, multi.Len()),
		lastPongs: make([]uint64, multi.Len()),
		probing:   make([]atomic.Bool, multi.Len()),
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	for i := range r.breakers {
		r.breakers[i] = newBreaker(cfg.BreakerThreshold)
	}
	r.nextGTID.Store(maxGTID)
	for _, p := range pending {
		phase := abortOf
		verdict := "presumed abort"
		if p.committed {
			phase = commitOf
			verdict = "re-delivering commit"
		}
		r.logf("shard: recovering gtid %d: %s", p.g.GTID, verdict)
		if _, err := r.deliver(p.g, phase); err != nil {
			return nil, fmt.Errorf("shard: resolving in-doubt gtid %d: %w", p.g.GTID, err)
		}
		if err := r.log.End(p.g.GTID); err != nil {
			return nil, err
		}
	}
	go r.probe()
	return r, nil
}

// probe watches open breakers: any Pong arriving from the shard while its
// breaker is open (our probes, keepalives, and regular traffic all count)
// half-opens it so one trial request can prove recovery. Probes are
// fire-and-forget goroutines guarded by a per-shard in-flight flag, so a
// shard whose link is down redialing cannot wedge the prober loop.
func (r *Router) probe() {
	defer close(r.probeDone)
	t := time.NewTicker(r.cfg.BreakerProbe)
	defer t.Stop()
	for {
		select {
		case <-r.probeStop:
			return
		case <-t.C:
		}
		for i, b := range r.breakers {
			if b.current() != breakerOpen {
				continue
			}
			cl := r.multi.Client(i)
			if pongs := cl.Stats().Pongs; pongs > r.lastPongs[i] {
				r.lastPongs[i] = pongs
				if b.halfOpen() {
					r.logf("shard: breaker for shard %d half-open (probe answered)", i)
				}
				continue
			}
			if r.probing[i].CompareAndSwap(false, true) {
				go func(i int, cl *client.Client) {
					defer r.probing[i].Store(false)
					_ = cl.Ping()
				}(i, cl)
			}
		}
	}
}

// observe feeds one backside outcome into a shard's breaker and logs
// transitions.
func (r *Router) observe(shard int, err error) {
	if from, to := r.breakers[shard].observe(breakerFailure(err)); from != "" {
		r.logf("shard: breaker for shard %d %s -> %s (%v)", shard, from, to, err)
	}
}

// Quiesce blocks until every dispatched request and every background
// decide delivery has finished, or the timeout elapses; it reports whether
// the router fully quiesced. Callers that need protocol settlement — not
// just client-future settlement — use it: since the coordinator answers
// clients at decision time, resolved futures no longer imply the decide
// pieces have reached every participant.
func (r *Router) Quiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for r.inflight.Load() > 0 || r.bg.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// Brownout implements wire.Backend: the router is in brownout — shedding
// everything at the wire with Backpressure — only when every shard's
// breaker is open (a total backside outage). With a partial outage,
// requests for live shards must still be admitted, so shedding happens
// per-request via ErrShardUnavailable instead.
func (r *Router) Brownout() bool {
	for _, b := range r.breakers {
		if b.current() != breakerOpen {
			return false
		}
	}
	return len(r.breakers) > 0
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// future is the router's durable-outcome handle, satisfying wire.Waiter.
type future struct {
	done chan struct{}
	ts   pacman.TS
	err  error
}

func newRouterFuture() *future { return &future{done: make(chan struct{})} }

func (f *future) resolve(ts pacman.TS, err error) {
	f.ts, f.err = ts, err
	close(f.done)
}

// Wait blocks until the routed request's outcome is known.
func (f *future) Wait() (pacman.TS, error) {
	<-f.done
	return f.ts, f.err
}

// errFuture returns an already-resolved future.
func errFuture(err error) *future {
	f := newRouterFuture()
	f.resolve(0, err)
	return f
}

// Procs implements wire.Backend: clients see the base workload's
// procedures, not the 2PC pieces.
func (r *Router) Procs() []string { return r.cluster.Public() }

// Close implements wire.Backend: it stops admitting, severs the backside
// links (resolving in-flight futures), and waits the dispatch goroutines
// out.
func (r *Router) Close() {
	if r.closed.Swap(true) {
		return
	}
	close(r.probeStop)
	<-r.probeDone
	r.multi.Close()
	r.wg.Wait()
}

// TrySubmit implements wire.Backend. The blocking parts of a dispatch —
// the per-shard client windows, the 2PC phases — ride a goroutine so the
// server's read loop never stalls; admission control is the QueueCap. A
// non-zero deadline (already anchored to this router's clock) bounds the
// whole routed request, backside hops included.
func (r *Router) TrySubmit(mode wire.SubmitMode, name string, args pacman.Args, deadline time.Time) (wire.Waiter, bool) {
	switch mode {
	case wire.ModePrepare, wire.ModeDecide:
		return errFuture(fmt.Errorf("shard: the router coordinates 2PC; it does not accept %s frames", "Prepare/Decide")), true
	}
	return r.submit(mode, name, args, deadline)
}

// Submit routes one invocation (library form of the frontside). A full
// router resolves an error wrapping wire.ErrBackpressure: never executed.
func (r *Router) Submit(name string, args pacman.Args) wire.Waiter {
	w, ok := r.submit(wire.ModeNormal, name, args, time.Time{})
	if !ok {
		return errFuture(fmt.Errorf("shard: router queue full: %w", wire.ErrBackpressure))
	}
	return w
}

func (r *Router) submit(mode wire.SubmitMode, name string, args pacman.Args, deadline time.Time) (wire.Waiter, bool) {
	if r.closed.Load() {
		return errFuture(ErrRouterClosed), true
	}
	if r.inflight.Load() >= int64(r.cfg.QueueCap) {
		return nil, false
	}
	r.inflight.Add(1)
	r.wg.Add(1)
	f := newRouterFuture()
	go r.dispatch(mode, name, args, deadline, f)
	return f, true
}

func (r *Router) dispatch(mode wire.SubmitMode, name string, args pacman.Args, deadline time.Time, f *future) {
	defer r.wg.Done()
	defer r.inflight.Add(-1)
	if deadline.IsZero() && r.cfg.CallTimeout > 0 {
		deadline = time.Now().Add(r.cfg.CallTimeout)
	}
	shards, err := r.cluster.routing.Route(name, args)
	if err != nil {
		f.resolve(0, err)
		return
	}
	if len(shards) == 1 {
		r.forward(mode, shards[0], name, args, deadline, f)
		return
	}
	if mode == wire.ModeAdHoc {
		f.resolve(0, fmt.Errorf("shard: ad-hoc invocations cannot span shards"))
		return
	}
	r.runCross(name, shards, args, deadline, f)
}

// forward sends a single-shard invocation untouched; the shard's own
// durability contract (group-commit release) resolves the future. The
// shard's breaker gates admission and learns from the outcome.
func (r *Router) forward(mode wire.SubmitMode, shard int, name string, args pacman.Args, deadline time.Time, f *future) {
	if !r.breakers[shard].allow() {
		f.resolve(0, fmt.Errorf("shard: shard %d: %w", shard, ErrShardUnavailable))
		return
	}
	timeout, bounded := remainingBudget(deadline)
	if bounded && timeout <= 0 {
		r.breakers[shard].release() // never sent; free any trial slot
		f.resolve(0, fmt.Errorf("shard: shard %d: %w", shard, txn.ErrDeadlineExceeded))
		return
	}
	ts, err := r.multi.Client(shard).SubmitRequest(client.Request{Proc: name, Args: args, Mode: mode, Timeout: timeout}).Wait()
	r.observe(shard, err)
	f.resolve(ts, err)
}

// remainingBudget converts a deadline into (remaining, bounded).
func remainingBudget(deadline time.Time) (time.Duration, bool) {
	if deadline.IsZero() {
		return 0, false
	}
	return time.Until(deadline), true
}

// runCross drives one cross-shard transaction through 2PC. A deadline
// bounds how long the CLIENT waits, not the protocol itself: prepares
// carry the remaining budget so a hung participant votes NO by timeout,
// abort and commit decisions always run to completion (in the background
// when the client has already been answered).
func (r *Router) runCross(name string, shards []int, args proc.Args, deadline time.Time, f *future) {
	gtid := r.nextGTID.Add(1)

	// Fail fast before touching the decision log: a participant behind an
	// open breaker would only time its prepare out, so shed now — presumed
	// abort holds trivially (no prepare ever leaves).
	for _, s := range shards {
		if !r.breakers[s].allow() {
			for _, prev := range shards {
				if prev == s {
					break
				}
				r.breakers[prev].release()
			}
			f.resolve(0, fmt.Errorf("shard: gtid %d: shard %d: %w", gtid, s, ErrShardUnavailable))
			return
		}
	}
	release := func() {
		for _, s := range shards {
			r.breakers[s].release()
		}
	}

	g, err := r.cluster.Split(name, gtid, shards, args)
	if err != nil {
		release()
		f.resolve(0, err)
		return
	}

	// Decision-point 0: the begin record (participants + their decide
	// pieces) must be durable before the first prepare leaves, so a router
	// crash can always finish the protocol from the log.
	if err := r.log.Begin(g); err != nil {
		release()
		f.resolve(0, err)
		return
	}

	// Phase 1: prepares, in parallel. Each ack means "executed AND durable
	// at my pepoch" — the prepare future resolves at the participant's
	// group-commit release, which is what aligns the 2PC prepare point
	// with the shards' epoch cadence. With a deadline, each prepare carries
	// the remaining budget, so a gray participant resolves
	// ErrDeadlineExceeded instead of hanging the coordinator.
	budget, bounded := remainingBudget(deadline)
	if bounded && budget <= 0 {
		budget = time.Nanosecond // already late: let the timer vote NO
	}
	prepFuts := make([]*client.Future, len(g.Parts))
	for i, p := range g.Parts {
		prepFuts[i] = r.multi.Client(p.Shard).SubmitRequest(client.Request{
			Proc: p.Prepare.Proc, Args: p.Prepare.Args, Mode: wire.ModePrepare, Timeout: budget})
	}
	var prepErr error
	for i, pf := range prepFuts {
		_, err := pf.Wait()
		r.observe(g.Parts[i].Shard, err)
		if err != nil && prepErr == nil {
			prepErr = fmt.Errorf("shard: gtid %d: prepare on shard %d: %w", gtid, g.Parts[i].Shard, err)
		}
	}

	if prepErr != nil {
		// Any NO vote, failure, or unknown outcome decides abort. No
		// decision record is needed (presumed abort); the abort pieces are
		// idempotent and safe even where the prepare never executed. The
		// client learns the abort NOW — the decision is final the moment it
		// is taken — while the abort pieces are delivered in the background
		// (a hung participant must not hold the answer hostage; if the
		// router dies first, recovery re-derives presumed abort from the
		// begin record).
		f.resolve(0, prepErr)
		r.wg.Add(1)
		r.bg.Add(1)
		go func() {
			defer r.wg.Done()
			defer r.bg.Add(-1)
			if _, err := r.deliver(g, abortOf); err != nil {
				r.logf("shard: gtid %d: abort delivery interrupted: %v", gtid, err)
				return
			}
			_ = r.log.End(gtid)
		}()
		return
	}

	// Decision point: every participant's prepare is durable; log commit
	// before any participant may learn of it.
	if err := r.log.Commit(gtid); err != nil {
		// Decision durability unknown — resolve uncertain and let recovery
		// settle it (commit record present → re-deliver; absent → abort).
		f.resolve(0, fmt.Errorf("shard: gtid %d: logging commit decision: %w", gtid, err))
		return
	}

	// Phase 2: commit decides, re-delivered until every participant acks.
	// The client's wait is bounded by its deadline; delivery itself is not
	// (a decision must reach every participant), so a late delivery keeps
	// running in the background and the client gets the honest "committed,
	// maybe not yet everywhere" deadline outcome.
	type delivered struct {
		ts  pacman.TS
		err error
	}
	ch := make(chan delivered, 1)
	r.wg.Add(1)
	r.bg.Add(1)
	go func() {
		defer r.wg.Done()
		defer r.bg.Add(-1)
		ts, err := r.deliver(g, commitOf)
		if err == nil {
			_ = r.log.End(gtid)
		}
		ch <- delivered{ts, err}
	}()
	var timeout <-chan time.Time
	if left, ok := remainingBudget(deadline); ok {
		if left <= 0 {
			left = time.Nanosecond
		}
		t := time.NewTimer(left)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case d := <-ch:
		if d.err != nil {
			// Committed but delivery interrupted (router closing): recovery
			// re-delivers from the log. The client's outcome is "maybe".
			f.resolve(0, fmt.Errorf("shard: gtid %d: committed, delivery incomplete: %w", gtid, d.err))
			return
		}
		f.resolve(d.ts, nil)
	case <-timeout:
		f.resolve(0, fmt.Errorf("shard: gtid %d: committed, delivery past deadline: %w", gtid, txn.ErrDeadlineExceeded))
	}
}

func commitOf(p Participant) Invocation { return p.Commit }
func abortOf(p Participant) Invocation  { return p.Abort }

// deliver sends one decide phase to every participant in parallel and
// waits until each has durably acked, re-sending through transient
// failures (shard down, restarting, crashed-before-durable) — decide
// pieces are status-gated, so re-delivery is idempotent. It returns the
// largest participant commit timestamp.
func (r *Router) deliver(g *gtxn, phase func(Participant) Invocation) (pacman.TS, error) {
	var (
		mu    sync.Mutex
		maxTS pacman.TS
		first error
		wg    sync.WaitGroup
	)
	for _, p := range g.Parts {
		wg.Add(1)
		go func(p Participant) {
			defer wg.Done()
			inv := phase(p)
			for {
				if r.closed.Load() {
					mu.Lock()
					if first == nil {
						first = ErrRouterClosed
					}
					mu.Unlock()
					return
				}
				ts, err := r.multi.Client(p.Shard).SubmitRequest(client.Request{Proc: inv.Proc, Args: inv.Args, Mode: wire.ModeDecide}).Wait()
				if err == nil {
					mu.Lock()
					if ts > maxTS {
						maxTS = ts
					}
					mu.Unlock()
					return
				}
				if errors.Is(err, wire.ErrUnknownProc) {
					// Configuration drift, not a transient: re-sending can
					// never succeed.
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("shard: gtid %d: decide %s on shard %d: %w", g.GTID, inv.Proc, p.Shard, err)
					}
					mu.Unlock()
					return
				}
				r.logf("shard: gtid %d: decide %s on shard %d: %v (retrying)", g.GTID, inv.Proc, p.Shard, err)
				time.Sleep(r.cfg.RetryBackoff)
			}
		}(p)
	}
	wg.Wait()
	return maxTS, first
}
