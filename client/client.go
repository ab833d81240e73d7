// Package client is the Go client for pacmand's wire protocol
// (docs/PROTOCOL.md): Dial a TCP or unix-socket endpoint, Submit stored-
// procedure invocations, and get client-side durable-commit futures back.
//
// The client pipelines: up to Window requests ride one connection
// concurrently, each tagged with a request id, and the server answers in
// whatever order the transactions' epochs are group-commit released —
// Submit never waits for a previous request's result. Submit blocks only
// for flow control: when the in-flight window is full (the bounded-window
// equivalent of the in-process Frontend's bounded queue) or while the
// connection is down.
//
// Failures map onto the same sentinels the in-process API uses, so
// errors.Is-based outcome classification is transport-agnostic:
// a Result frame carrying CodeCrashed resolves the future with an error
// wrapping pacman.ErrCrashed, CodeAborted wraps the procedure-abort error,
// and a connection that dies between Submit and Result resolves
// ErrConnLost — the network twin of "executed, maybe durable, ack lost",
// which is exactly how the torture oracle treats it.
//
// Server-side backpressure (a full admission queue) is retried internally
// with exponential backoff: the request was NEVER executed, so resubmission
// is always safe. A call bounced by a draining server resolves at once with
// an error that is errors.Is both ErrConnLost and wire.ErrDraining — also
// never executed; the caller decides whether to resubmit. Lost connections
// are redialed with backoff in the background; futures in flight at the
// loss resolve ErrConnLost (unknown outcome — a resubmission could double-
// execute), while queued-but-unsent work simply waits for the next link.
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pacman"
	"pacman/internal/health"
	"pacman/internal/proc"
	"pacman/internal/wire"
)

// Client errors.
var (
	// ErrConnLost resolves futures whose connection died between submission
	// and result: the request may or may not have executed (and may or may
	// not be durable) — the oracle-visible "maybe" outcome. A call bounced
	// by a draining server resolves with an error wrapping both ErrConnLost
	// and wire.ErrDraining: the link is going away, but wire.ErrDraining
	// marks that this request never executed, so resubmitting it is safe.
	ErrConnLost = errors.New("client: connection lost before result; outcome unknown")
	// ErrClientClosed resolves futures submitted to (or pending retry on) a
	// closed client; the request was not executed.
	ErrClientClosed = errors.New("client: closed")
)

// Config tunes a Client. The zero value of every field has a working
// default.
type Config struct {
	// Window bounds the client's in-flight requests; the effective window
	// is min(Window, the server's HelloAck grant). Default 64.
	Window int
	// DialTimeout bounds one connection attempt (default 5s).
	DialTimeout time.Duration
	// BackoffMin/BackoffMax bound the reconnect and backpressure-retry
	// backoff (defaults 5ms and 1s).
	BackoffMin, BackoffMax time.Duration
	// KeepAlive, when positive, probes idle connections with wire Pings at
	// this cadence: if a whole further interval passes with no frame from
	// the server, the link is failed (in-flight futures resolve ErrConnLost)
	// and redialed. This is how a shard router notices a dead or wedged
	// shard without waiting for a Submit to time out. Zero disables
	// keepalive (the default).
	KeepAlive time.Duration
	// RetryBudget caps how many times one call is resubmitted after a
	// server-side Backpressure shed (which guarantees the request never
	// executed). When the budget runs out the call's future resolves with a
	// StatusError carrying the attempt count (unwrapping to
	// wire.ErrBackpressure). Zero means retry forever (the pre-budget
	// behavior: callers that prefer blocking to shedding keep it).
	RetryBudget int
	// Logf, when set, receives connection-lifecycle diagnostics.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 5 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = time.Second
	}
	return c
}

// Future is the client-side durable-commit handle of one submitted
// invocation: it resolves when the server's Result frame arrives (nil
// error means executed AND durable on the server's devices), or with
// ErrConnLost / ErrClientClosed when the transport fails first.
type Future struct {
	done  chan struct{}
	state atomic.Uint32
	start time.Time
	ts    pacman.TS
	err   error
	timer atomic.Pointer[time.Timer] // client-side deadline expiry; nil when no deadline
}

func newFuture() *Future {
	return &Future{done: make(chan struct{}), start: time.Now()}
}

func (f *Future) resolve(ts pacman.TS, err error) {
	if !f.state.CompareAndSwap(0, 1) {
		return
	}
	f.ts = ts
	f.err = err
	close(f.done)
	if t := f.timer.Load(); t != nil {
		t.Stop()
	}
}

// Wait blocks until resolution and returns the commit timestamp and the
// terminal error (nil means executed and durable).
func (f *Future) Wait() (pacman.TS, error) {
	<-f.done
	return f.ts, f.err
}

// Done returns a channel closed at resolution, for select-based waiting.
func (f *Future) Done() <-chan struct{} { return f.done }

// Err blocks until resolution and returns the terminal error.
func (f *Future) Err() error {
	<-f.done
	return f.err
}

// Epoch blocks until resolution and returns the commit epoch (zero on
// error), the unit group commit acknowledges in.
func (f *Future) Epoch() uint32 {
	<-f.done
	return uint32(f.ts >> 32)
}

// Latency blocks until resolution and returns the client-observed
// submit-to-durable latency (zero on error) — the number the loopback
// benchmark reports as durable p99.
func (f *Future) Latency() time.Duration {
	<-f.done
	if f.err != nil {
		return 0
	}
	return time.Since(f.start) // resolved instant ≈ now for waiters
}

// call is one in-flight (or retry-pending) request. The submission is
// retained so a backpressure rejection — which guarantees the request never
// executed — can resend it safely.
type call struct {
	fut      *Future
	name     string
	args     proc.Args
	adHoc    bool
	frame    uint8 // FrameSubmit (zero value defaults to it), FramePrepare, or FrameDecide
	reqID    uint64
	attempts int
	// deadline, when non-zero, rides the Submit frame as a relative timeout
	// (re-derived at each send, so retries carry only the remaining budget)
	// and arms a client-side expiry timer on the future.
	deadline time.Time
}

// link is one live connection incarnation: its own window semaphore,
// pending map, and reader goroutine. A lost connection fails the whole
// link; the client's maintainer dials a replacement.
type link struct {
	nc     net.Conn
	procs  map[string]uint32
	window chan struct{}
	down   chan struct{}
	dmu    sync.Mutex // guards down close
	downed bool

	wmu sync.Mutex // serializes frame writes

	// lastRecv is when the last frame (any type) arrived, as unix nanos;
	// the keepalive prober treats it as proof of peer liveness.
	lastRecv atomic.Int64

	pmu     sync.Mutex
	pending map[uint64]*call
}

// Client is a pacmand connection manager: one live link at a time,
// redialed with backoff, with a bounded in-flight window and pipelined
// out-of-order completion.
type Client struct {
	network, addr string
	cfg           Config

	mu     sync.Mutex
	link   *link
	closed bool
	// changed is closed (and replaced) whenever link is installed or the
	// client closes; waitLink selects on it.
	changed chan struct{}

	nextReq atomic.Uint64

	// Liveness telemetry: ping round-trips (keepalive probes and explicit
	// Pings both count) and connection/retry churn, exposed via Stats. A
	// shard router's breaker uses Pongs to confirm a suspect shard answered
	// a probe before half-opening.
	rtt        health.EWMA
	lastRTT    atomic.Int64
	pings      atomic.Uint64
	pongs      atomic.Uint64
	reconnects atomic.Uint64
	retries    atomic.Uint64
	shed       atomic.Uint64

	pingMu sync.Mutex
	pingAt map[uint64]time.Time // reqID -> send time of unanswered pings
}

// Stats is a point-in-time snapshot of a client's liveness telemetry.
type Stats struct {
	// RTT is the smoothed (EWMA) ping round-trip time; zero until the first
	// pong. LastRTT is the most recent single sample.
	RTT     time.Duration `json:"rtt"`
	LastRTT time.Duration `json:"last_rtt"`
	// Pings/Pongs count probes sent and answered across all connections.
	Pings uint64 `json:"pings"`
	Pongs uint64 `json:"pongs"`
	// Reconnects counts successful redials after the initial connection.
	Reconnects uint64 `json:"reconnects"`
	// Retries counts backpressure resubmissions; Shed counts calls
	// failed because their RetryBudget ran out.
	Retries uint64 `json:"retries"`
	Shed    uint64 `json:"shed"`
}

// Stats returns the client's liveness telemetry: smoothed ping RTT,
// probe and reconnect counters, and retry churn.
func (c *Client) Stats() Stats {
	return Stats{
		RTT:        c.rtt.Load(),
		LastRTT:    time.Duration(c.lastRTT.Load()),
		Pings:      c.pings.Load(),
		Pongs:      c.pongs.Load(),
		Reconnects: c.reconnects.Load(),
		Retries:    c.retries.Load(),
		Shed:       c.shed.Load(),
	}
}

// sendPing writes one Ping frame on l and records its send time so the
// matching Pong yields an RTT sample.
func (c *Client) sendPing(l *link) error {
	id := c.nextReq.Add(1)
	c.pingMu.Lock()
	if c.pingAt == nil {
		c.pingAt = make(map[uint64]time.Time)
	}
	if len(c.pingAt) > 16 {
		// Unanswered probes from dead links; drop them rather than grow.
		clear(c.pingAt)
	}
	c.pingAt[id] = time.Now()
	c.pingMu.Unlock()
	c.pings.Add(1)
	l.wmu.Lock()
	err := wire.WriteFrame(l.nc, wire.Header{Type: wire.FramePing, ReqID: id}, nil)
	l.wmu.Unlock()
	return err
}

// pong records a Pong answering one of our probes.
func (c *Client) pong(reqID uint64) {
	c.pingMu.Lock()
	sent, ok := c.pingAt[reqID]
	delete(c.pingAt, reqID)
	c.pingMu.Unlock()
	if !ok {
		return
	}
	rtt := time.Since(sent)
	c.pongs.Add(1)
	c.lastRTT.Store(int64(rtt))
	c.rtt.Observe(rtt)
}

// Dial connects to a pacmand endpoint ("tcp" or "unix") and performs the
// protocol handshake. The first connection is made synchronously so
// misconfiguration fails fast; afterwards, lost connections are redialed
// with exponential backoff in the background until Close.
func Dial(network, addr string, cfg Config) (*Client, error) {
	c := &Client{network: network, addr: addr, cfg: cfg.withDefaults(), changed: make(chan struct{})}
	l, err := c.connect()
	if err != nil {
		return nil, err
	}
	c.link = l // c is not shared until maintain starts
	go c.maintain(l)
	return c, nil
}

func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// connect dials once and handshakes: Hello out, HelloAck (or a coded
// GoAway rejection) back. The returned link's reader goroutine is running.
func (c *Client) connect() (*link, error) {
	nc, err := net.DialTimeout(c.network, c.addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	// The handshake shares the dial budget: a gray endpoint that accepts
	// the TCP connection but never answers Hello must fail the attempt,
	// not wedge the redial loop forever.
	nc.SetDeadline(time.Now().Add(c.cfg.DialTimeout))
	if err := wire.WriteFrame(nc, wire.Header{Type: wire.FrameHello}, wire.AppendHello(nil, wire.V1, wire.V1)); err != nil {
		nc.Close()
		return nil, err
	}
	h, p, err := wire.ReadFrame(nc, nil)
	if err != nil {
		nc.Close()
		return nil, err
	}
	if h.Type == wire.FrameGoAway {
		nc.Close()
		return nil, fmt.Errorf("client: server rejected handshake: %w", wire.CodeError(h.Code, ""))
	}
	if h.Type != wire.FrameHelloAck {
		nc.Close()
		return nil, fmt.Errorf("client: expected HelloAck, got %s: %w", wire.FrameName(h.Type), wire.ErrBadFrame)
	}
	_, grant, procs, err := wire.ParseHelloAck(p)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: hello ack: %w", err)
	}
	window := c.cfg.Window
	if int(grant) < window {
		window = int(grant)
	}
	if window < 1 {
		window = 1
	}
	l := &link{
		nc:      nc,
		procs:   make(map[string]uint32, len(procs)),
		window:  make(chan struct{}, window),
		down:    make(chan struct{}),
		pending: map[uint64]*call{},
	}
	for i, name := range procs {
		l.procs[name] = uint32(i)
	}
	nc.SetDeadline(time.Time{}) // handshake done; steady state has no I/O deadline
	l.lastRecv.Store(time.Now().UnixNano())
	go c.readLoop(l)
	if c.cfg.KeepAlive > 0 {
		go c.keepalive(l)
	}
	return l, nil
}

// keepalive probes an idle link with Pings. Any inbound frame counts as
// liveness (a busy connection never pings); a full interval of silence
// after a probe fails the link, which resolves in-flight futures with
// ErrConnLost and wakes the redial loop — so a dead shard surfaces on the
// keepalive cadence instead of a future Submit's timeout.
func (c *Client) keepalive(l *link) {
	t := time.NewTicker(c.cfg.KeepAlive)
	defer t.Stop()
	awaiting := false
	for {
		select {
		case <-l.down:
			return
		case <-t.C:
			idle := time.Since(time.Unix(0, l.lastRecv.Load()))
			if idle < c.cfg.KeepAlive {
				awaiting = false
				continue
			}
			if awaiting {
				c.logf("client: keepalive timeout on %s after %v silence; failing link", c.addr, idle)
				l.fail()
				return
			}
			awaiting = true
			if err := c.sendPing(l); err != nil {
				l.fail()
				return
			}
		}
	}
}

// jitterBackoff returns a full-jitter delay for the given zero-based
// attempt: uniform in (0, min(max, min<<attempt)]. Full jitter (rather
// than a deterministic doubling) keeps a fleet of clients whose server
// just bounced from reconnecting — and re-colliding — in lockstep.
func jitterBackoff(min, max time.Duration, attempt int) time.Duration {
	cap := min << attempt
	if attempt >= 30 || cap <= 0 || cap > max { // shift overflow guard
		cap = max
	}
	if cap <= 0 {
		return 0
	}
	return time.Duration(rand.Int63n(int64(cap))) + 1
}

// maintain owns the link lifecycle: whenever the current link l dies, dial
// a replacement with jittered exponential backoff until Close. A dead link
// stays installed until its replacement lands; waitLink skips it.
func (c *Client) maintain(l *link) {
	for {
		<-l.down // Close fails the installed link, so this always wakes
		for attempt := 0; ; attempt++ {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return
			}
			nl, err := c.connect()
			if err == nil {
				c.mu.Lock()
				if c.closed { // Close ran during the dial
					c.mu.Unlock()
					nl.fail()
					return
				}
				c.setLinkLocked(nl)
				c.mu.Unlock()
				c.reconnects.Add(1)
				c.logf("client: reconnected to %s", c.addr)
				l = nl
				break
			}
			backoff := jitterBackoff(c.cfg.BackoffMin, c.cfg.BackoffMax, attempt)
			c.logf("client: dial %s: %v (retrying in %v)", c.addr, err, backoff)
			time.Sleep(backoff)
		}
	}
}

// fail kills a link: the connection closes, every pending call resolves
// ErrConnLost, and the maintainer is woken to redial.
func (l *link) fail() {
	l.dmu.Lock()
	if l.downed {
		l.dmu.Unlock()
		return
	}
	l.downed = true
	close(l.down)
	l.dmu.Unlock()
	l.nc.Close()
	l.pmu.Lock()
	pending := l.pending
	l.pending = map[uint64]*call{}
	l.pmu.Unlock()
	for _, cl := range pending {
		cl.fut.resolve(0, ErrConnLost)
	}
}

// readLoop decodes response frames off one link until it dies.
func (c *Client) readLoop(l *link) {
	defer l.fail()
	var buf []byte
	for {
		h, p, err := wire.ReadFrame(l.nc, buf)
		if err != nil {
			return
		}
		buf = p
		l.lastRecv.Store(time.Now().UnixNano())
		switch h.Type {
		case wire.FrameResult:
			l.pmu.Lock()
			cl := l.pending[h.ReqID]
			delete(l.pending, h.ReqID)
			l.pmu.Unlock()
			if cl == nil {
				continue // stale or duplicate id; ignore
			}
			ts, msg, perr := wire.ParseResult(h.Code, p)
			select {
			case <-l.window:
			default:
			}
			switch {
			case perr != nil:
				cl.fut.resolve(0, fmt.Errorf("client: result for req %d: %w", h.ReqID, perr))
			case h.Code == wire.CodeOK:
				cl.fut.resolve(pacman.TS(ts), nil)
			case h.Code == wire.CodeDraining:
				// Never executed, and the server is closing this link:
				// resolve now rather than park for an incarnation that may
				// never come. The caller decides whether to resubmit.
				cl.fut.resolve(0, fmt.Errorf("%w: %w", ErrConnLost, wire.CodeError(h.Code, msg)))
			default:
				cl.fut.resolve(0, wire.CodeError(h.Code, msg))
			}
		case wire.FrameBackpressure:
			l.pmu.Lock()
			cl := l.pending[h.ReqID]
			delete(l.pending, h.ReqID)
			l.pmu.Unlock()
			select {
			case <-l.window:
			default:
			}
			if cl != nil {
				// Never executed (the admission queue was full): resubmit
				// after a backoff proportional to how often this request has
				// been pushed back.
				c.retryLater(cl)
			}
		case wire.FrameGoAway:
			// Drain notice: the server settles what is in flight, bounces
			// later submits with CodeDraining, then closes. Nothing to do.
		case wire.FramePong:
			// Liveness answer: match it to our probe for an RTT sample.
			c.pong(h.ReqID)
		default:
			c.logf("client: unexpected %s from server", wire.FrameName(h.Type))
			return
		}
	}
}

// retryLater reschedules a never-executed call with jittered exponential
// backoff, or fails it fast when its retry budget is spent — the client's
// half of shedding under brownout: a server emitting Backpressure on every
// Submit should push typed errors to callers, not an unbounded retry storm.
func (c *Client) retryLater(cl *call) {
	cl.attempts++
	if c.cfg.RetryBudget > 0 && cl.attempts >= c.cfg.RetryBudget {
		c.shed.Add(1)
		cl.fut.resolve(0, &wire.StatusError{
			Code:     wire.CodeBackpressure,
			Msg:      "server shedding load",
			Attempts: cl.attempts,
		})
		return
	}
	c.retries.Add(1)
	delay := jitterBackoff(c.cfg.BackoffMin, c.cfg.BackoffMax, cl.attempts-1)
	time.AfterFunc(delay, func() { c.dispatch(cl) })
}

// Submit sends one invocation and returns its future. It blocks only for
// flow control (window full or connection down), never for execution or
// durability. A procedure name the server did not announce resolves the
// future immediately with an error.
func (c *Client) Submit(name string, args pacman.Args) *Future {
	return c.submit(name, args, false)
}

// SubmitAdHoc is Submit for ad-hoc transactions (tuple-level logging even
// under command logging).
func (c *Client) SubmitAdHoc(name string, args pacman.Args) *Future {
	return c.submit(name, args, true)
}

// Prepare sends phase one of a cross-shard commit: the named 2PC piece
// executes as a distributed transaction (value-logged), and the returned
// future resolves nil only when its effects are durable at the server's
// pepoch — the prepare ack a coordinator's commit decision may rely on.
// Shard routers call this; ordinary applications use Submit.
func (c *Client) Prepare(name string, args pacman.Args) *Future {
	cl := &call{fut: newFuture(), name: name, args: args, frame: wire.FramePrepare, reqID: c.nextReq.Add(1)}
	c.dispatch(cl)
	return cl.fut
}

// Decide sends phase two of a cross-shard commit: the commit-apply or
// abort-release piece for a decided transaction. Decide pieces gate on the
// participant's 2PC status row, so re-delivery during presumed-abort
// recovery is safe.
func (c *Client) Decide(name string, args pacman.Args) *Future {
	cl := &call{fut: newFuture(), name: name, args: args, frame: wire.FrameDecide, reqID: c.nextReq.Add(1)}
	c.dispatch(cl)
	return cl.fut
}

// SubmitWithin is Submit with a per-request timeout: the deadline rides the
// Submit frame (as a relative timeout, so clock skew cannot distort it) and
// the server sheds the request wherever it expires — admission, dequeue, or
// the durability pipeline. The client arms its own expiry timer too, so the
// future resolves CodeDeadlineExceeded on time even if the server (or the
// network) has wedged. Like a connection loss, a deadline expiry leaves the
// execution state unknown: the transaction may still commit durably.
func (c *Client) SubmitWithin(name string, args pacman.Args, timeout time.Duration) *Future {
	return c.submitDeadline(name, args, false, timeout)
}

// SubmitAdHocWithin is SubmitAdHoc with a per-request timeout.
func (c *Client) SubmitAdHocWithin(name string, args pacman.Args, timeout time.Duration) *Future {
	return c.submitDeadline(name, args, true, timeout)
}

// PrepareWithin is Prepare with a per-request timeout — how a shard router
// bounds phase one of a cross-shard commit so a gray participant cannot
// stall the coordinator past the transaction's deadline. (There is no
// DecideWithin: decisions must eventually be delivered, so phase two
// retries without a deadline.)
func (c *Client) PrepareWithin(name string, args pacman.Args, timeout time.Duration) *Future {
	cl := &call{fut: newFuture(), name: name, args: args, frame: wire.FramePrepare, reqID: c.nextReq.Add(1)}
	c.arm(cl, timeout)
	c.dispatch(cl)
	return cl.fut
}

func (c *Client) submit(name string, args pacman.Args, adHoc bool) *Future {
	cl := &call{fut: newFuture(), name: name, args: args, adHoc: adHoc, reqID: c.nextReq.Add(1)}
	c.dispatch(cl)
	return cl.fut
}

func (c *Client) submitDeadline(name string, args pacman.Args, adHoc bool, timeout time.Duration) *Future {
	cl := &call{fut: newFuture(), name: name, args: args, adHoc: adHoc, reqID: c.nextReq.Add(1)}
	c.arm(cl, timeout)
	c.dispatch(cl)
	return cl.fut
}

// arm sets a call's deadline and starts the client-side expiry timer. A
// result that lands first wins (resolve is first-one-wins), so a durable
// ack is never retroactively failed.
func (c *Client) arm(cl *call, timeout time.Duration) {
	if timeout <= 0 {
		return
	}
	cl.deadline = time.Now().Add(timeout)
	fut := cl.fut
	// Store-after-AfterFunc means a tiny timeout can fire before the
	// pointer lands; resolve then sees nil and skips the Stop, which is
	// harmless — the timer has already fired.
	fut.timer.Store(time.AfterFunc(timeout, func() {
		fut.resolve(0, &wire.StatusError{Code: wire.CodeDeadlineExceeded, Msg: "no result before deadline"})
	}))
}

// Exec is the synchronous variant: Submit and wait for the durable result.
func (c *Client) Exec(name string, args pacman.Args) (pacman.TS, error) {
	return c.Submit(name, args).Wait()
}

// dispatch pushes one call through the current link, waiting out
// disconnections; it is the shared path for first sends and retries.
func (c *Client) dispatch(cl *call) {
	for {
		l := c.waitLink(cl.fut.done)
		if l == nil {
			// Closed, or the call's deadline fired while disconnected;
			// resolve is first-one-wins, so an already-expired future
			// keeps its CodeDeadlineExceeded.
			cl.fut.resolve(0, ErrClientClosed)
			return
		}
		procID, ok := l.procs[cl.name]
		if !ok {
			cl.fut.resolve(0, fmt.Errorf("client: procedure %q not announced by server: %w", cl.name, wire.ErrUnknownProc))
			return
		}
		// Window slot: the bounded in-flight cap. Abandon the wait if the
		// link dies under us and go find the next one.
		select {
		case l.window <- struct{}{}:
		case <-l.down:
			continue
		case <-cl.fut.done:
			// Deadline fired while queued for a slot; nothing was sent.
			return
		}
		l.pmu.Lock()
		l.pending[cl.reqID] = cl
		l.pmu.Unlock()

		var flags uint8
		if cl.adHoc {
			flags = wire.FlagAdHoc
		}
		frame := cl.frame
		if frame == 0 {
			frame = wire.FrameSubmit
		}
		var payload []byte
		if !cl.deadline.IsZero() {
			// Send the REMAINING budget: retries that burned backoff time
			// hand the server a correspondingly shorter leash.
			remaining := time.Until(cl.deadline)
			if remaining <= 0 {
				l.pmu.Lock()
				delete(l.pending, cl.reqID)
				l.pmu.Unlock()
				select {
				case <-l.window:
				default:
				}
				cl.fut.resolve(0, &wire.StatusError{
					Code:     wire.CodeDeadlineExceeded,
					Msg:      "deadline expired before send",
					Attempts: cl.attempts,
				})
				return
			}
			flags |= wire.FlagDeadline
			payload = wire.AppendSubmitDeadline(nil, procID, remaining, cl.args)
		} else {
			payload = wire.AppendSubmit(nil, procID, cl.args)
		}
		l.wmu.Lock()
		err := wire.WriteFrame(l.nc, wire.Header{Type: frame, Flags: flags, ReqID: cl.reqID}, payload)
		l.wmu.Unlock()
		if err != nil {
			// The frame is written with a single Write, which errors only
			// when the bytes were not all handed off — so the server cannot
			// have seen a complete Submit and the request never executed.
			// Reclaim the call before fail() sweeps pending (everything
			// ELSE in flight genuinely has an unknown outcome) and resend
			// it on the next link. If a concurrent fail() got there first,
			// the call already resolved ErrConnLost; don't resend then.
			l.pmu.Lock()
			_, mine := l.pending[cl.reqID]
			delete(l.pending, cl.reqID)
			l.pmu.Unlock()
			l.fail()
			if mine {
				c.logf("client: write to %s failed (%v); resending req %d on next connection", c.addr, err, cl.reqID)
				continue
			}
			return
		}
		return
	}
}

// waitLink blocks until a live link exists, the client is closed, or abort
// fires — nil return for the latter two. abort is the call's resolution
// channel: a deadline that expires while the client is disconnected must
// release the dispatcher (the future already resolved
// CodeDeadlineExceeded), not strand it until a reconnect that may never
// complete. Pass nil for an unbounded wait.
func (c *Client) waitLink(abort <-chan struct{}) *link {
	for {
		c.mu.Lock()
		l, closed, changed := c.link, c.closed, c.changed
		c.mu.Unlock()
		if closed {
			return nil
		}
		if l != nil {
			select {
			case <-l.down: // dead; the maintainer is replacing it
			default:
				return l
			}
		}
		select {
		case <-changed:
		case <-abort: // nil abort never fires
			return nil
		}
	}
}

// setLinkLocked installs l (nil on Close) and wakes every waitLink. c.mu
// must be held.
func (c *Client) setLinkLocked(l *link) {
	c.link = l
	close(c.changed)
	c.changed = make(chan struct{})
}

// Ping round-trips a liveness probe on the current connection. The probe
// is fire-and-forget; the answering Pong lands in Stats (RTT, Pongs).
func (c *Client) Ping() error {
	l := c.waitLink(nil)
	if l == nil {
		return ErrClientClosed
	}
	return c.sendPing(l)
}

// Close severs the connection and stops reconnecting. Futures in flight
// resolve ErrConnLost; retry-pending ones resolve ErrClientClosed when
// their timer fires.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	l := c.link
	c.setLinkLocked(nil)
	c.mu.Unlock()
	l.fail() // maintain waits on it; in-flight futures resolve ErrConnLost
}
