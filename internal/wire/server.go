package wire

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pacman"
)

// ServerConfig tunes a Server.
type ServerConfig struct {
	// Workers is the frontend session-pool size the server multiplexes
	// every connection onto (default 4).
	Workers int
	// Queue is the frontend admission-queue capacity; a full queue surfaces
	// to clients as backpressure frames (default 4×Workers).
	Queue int
	// Window is the per-connection in-flight grant announced in HelloAck;
	// submissions beyond it are answered with backpressure (default
	// DefaultWindow).
	Window int
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

// SubmitMode classifies a request by the frame that carries it: a plain or
// ad-hoc Submit, or one of the two 2PC phases a shard router drives
// cross-shard commits through.
type SubmitMode uint8

// Submit modes.
const (
	ModeNormal SubmitMode = iota
	ModeAdHoc
	ModePrepare
	ModeDecide
)

// Waiter is the durable-commit handle a Backend returns for an admitted
// request; *pacman.Future satisfies it.
type Waiter interface {
	Wait() (pacman.TS, error)
}

// Backend is the serving side of a Server: what a connection's admitted
// requests are submitted to. Attach installs the standard backend — a
// frontend over a pacman instance; a shard router installs its routing
// frontside through AttachBackend, which is how one Server implementation
// speaks PAC1 for both a single shard and a whole cluster.
//
// TrySubmit follows the frontend's non-blocking admission contract:
// (nil, false) means "not admitted right now" (queue full — the server
// answers with a backpressure frame); a non-nil Waiter is answered with a
// Result frame when it resolves, whether or not ok is true (a terminal
// error rides the Waiter).
type Backend interface {
	// Procs is the procedure table in procedure-ID order (HelloAck payload).
	Procs() []string
	// TrySubmit admits one request for the named procedure. A non-zero
	// deadline (already anchored to the server's clock) arms fail-fast
	// expiry: the Waiter resolves ErrDeadlineExceeded if the commit is not
	// durable in time.
	TrySubmit(mode SubmitMode, proc string, args pacman.Args, deadline time.Time) (Waiter, bool)
	// QueueDepth and QueueCap describe the admission queue for
	// backpressure frames.
	QueueDepth() int
	QueueCap() int
	// Brownout reports whether the backend's health watchdog is shedding
	// new work; the server answers submissions with Backpressure frames
	// instead of admitting them while it holds.
	Brownout() bool
	// Close retires the backend (server Drain/Close).
	Close()
}

// feState is the serving state a connection snapshots per request: the
// backend of the CURRENT incarnation and its procedure table.
// Attach/AttachBackend swap it atomically across a crash→Restart cycle, so
// connections that survive the daemon's restart (or arrive mid-swap)
// always submit to the live incarnation.
type feState struct {
	be    Backend
	procs []string
}

// feBackend adapts a pacman Frontend to the Backend seam, mapping the 2PC
// phases onto the distributed (value-logged) submission path.
type feBackend struct {
	fe    *pacman.Frontend
	procs []string
}

func (b *feBackend) Procs() []string { return b.procs }

func (b *feBackend) TrySubmit(mode SubmitMode, proc string, args pacman.Args, deadline time.Time) (Waiter, bool) {
	r := pacman.Request{Proc: proc, Args: args, Deadline: deadline, NoWait: true}
	switch mode {
	case ModeAdHoc:
		r.Mode = pacman.ModeAdHoc
	case ModePrepare, ModeDecide:
		r.Mode = pacman.ModeDist
	}
	fut := b.fe.SubmitRequest(r)
	if fut.Resolved() && errors.Is(fut.Err(), pacman.ErrQueueFull) {
		return nil, false
	}
	return fut, true
}

func (b *feBackend) QueueDepth() int { return b.fe.QueueDepth() }
func (b *feBackend) QueueCap() int   { return b.fe.QueueCap() }
func (b *feBackend) Brownout() bool  { return b.fe.Brownout() }
func (b *feBackend) Close()          { b.fe.Close() }

// Server speaks the wire protocol over any set of TCP/unix listeners,
// multiplexing every connection's pipelined submissions onto one pacman
// Frontend. It is the library form of pacmand: the daemon binary, the
// loopback benchmark, and the network torture cycle all embed it.
//
// Lifecycle: NewServer → Attach(db) → Listen(...) → serve; then either
// Drain (graceful: stop accepting, reject new work with CodeDraining,
// settle in-flight futures, retire the pool) or Kill (abrupt: sever every
// connection, simulating the daemon process dying with its instance).
// After a Kill, Attach a restarted instance and Listen again — the same
// Server object serves the next incarnation, which is exactly what the
// torture cycle exercises.
type Server struct {
	cfg   ServerConfig
	state atomic.Pointer[feState]

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*srvConn]struct{}
	draining  atomic.Bool
	acceptWG  sync.WaitGroup
}

// NewServer builds a server; Attach an instance before Listen.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 4 * cfg.Workers
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	return &Server{
		cfg:       cfg,
		listeners: map[net.Listener]struct{}{},
		conns:     map[*srvConn]struct{}{},
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Attach binds the server to a (started) database instance: it opens a
// frontend over it and publishes the procedure table. Re-attaching after a
// crash→Restart swaps the serving state; the previous incarnation's
// frontend is closed (safe on a crashed instance — its futures have
// already resolved ErrCrashed).
func (s *Server) Attach(db *pacman.DB) error {
	fe, err := db.NewFrontend(pacman.FrontendConfig{Workers: s.cfg.Workers, Queue: s.cfg.Queue})
	if err != nil {
		return err
	}
	s.AttachBackend(&feBackend{fe: fe, procs: db.Procedures()})
	return nil
}

// AttachBackend installs a custom serving backend — the seam the shard
// router's PAC1 frontside plugs into. Semantics match Attach: the previous
// incarnation's backend is closed and draining state is reset.
func (s *Server) AttachBackend(be Backend) {
	old := s.state.Swap(&feState{be: be, procs: be.Procs()})
	s.draining.Store(false)
	if old != nil {
		old.be.Close()
	}
}

// Listen opens a listener ("tcp" or "unix") and starts accepting. A stale
// unix socket file left by a killed incarnation is removed and retried.
// The returned address is the bound one (useful with ":0").
func (s *Server) Listen(network, addr string) (net.Addr, error) {
	l, err := net.Listen(network, addr)
	if err != nil && network == "unix" {
		// A previous incarnation's socket file: remove and retry once.
		if rmErr := os.Remove(addr); rmErr == nil {
			l, err = net.Listen(network, addr)
		}
	}
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	s.acceptWG.Add(1)
	go s.acceptLoop(l)
	return l.Addr(), nil
}

func (s *Server) acceptLoop(l net.Listener) {
	defer s.acceptWG.Done()
	for {
		nc, err := l.Accept()
		if err != nil {
			return // listener closed (Drain/Kill)
		}
		c := &srvConn{s: s, nc: nc, out: make(chan outMsg, s.cfg.Window+8), closed: make(chan struct{})}
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go c.writeLoop()
		go c.readLoop()
	}
}

// closeListeners stops accepting new connections.
func (s *Server) closeListeners() {
	s.mu.Lock()
	for l := range s.listeners {
		l.Close()
		delete(s.listeners, l)
	}
	s.mu.Unlock()
	s.acceptWG.Wait()
}

// snapshotConns copies the live connection set.
func (s *Server) snapshotConns() []*srvConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		out = append(out, c)
	}
	return out
}

// Drain is the graceful shutdown: stop accepting, announce GoAway on every
// connection, reject new submissions with CodeDraining, wait (bounded by
// timeout) for every in-flight future to settle and its result frame to be
// queued, then sever connections and retire the frontend pool. The caller
// closes the database afterwards, which flushes group commit.
func (s *Server) Drain(timeout time.Duration) {
	s.draining.Store(true)
	s.closeListeners()
	conns := s.snapshotConns()
	for _, c := range conns {
		c.send(outMsg{h: Header{Type: FrameGoAway, Code: CodeDraining}})
	}
	deadline := time.Now().Add(timeout)
	for _, c := range conns {
		// Barrier: an admission that checked draining before the Store
		// above has finished its inflight.Add; every later one is bounced.
		c.admitMu.Lock()
		c.admitMu.Unlock()
		done := make(chan struct{})
		go func(c *srvConn) { c.inflight.Wait(); close(done) }(c)
		select {
		case <-done:
		case <-time.After(time.Until(deadline)):
			s.logf("wire: drain timeout with %d requests in flight on %s", c.inflightN.Load(), c.nc.RemoteAddr())
		}
		// Give the writer a moment to flush queued results before severing.
		c.flushAndClose()
	}
	if st := s.state.Load(); st != nil {
		st.be.Close()
	}
}

// Kill is the abrupt stop: listeners and connections are severed
// immediately, mid-frame, with no GoAway — the network-visible equivalent
// of the daemon process dying. The Server object remains reusable:
// Attach a recovered instance and Listen again.
func (s *Server) Kill() {
	s.closeListeners()
	for _, c := range s.snapshotConns() {
		c.close()
	}
}

// Close shuts the server down for good: Kill plus frontend retirement.
func (s *Server) Close() {
	s.Kill()
	if st := s.state.Swap(nil); st != nil {
		st.be.Close()
	}
}

// outMsg is one frame queued to a connection's writer; a flush sentinel
// (nil frame, non-nil flush channel) is acknowledged by the writer once
// every frame queued before it has been written.
type outMsg struct {
	h       Header
	payload []byte
	flush   chan struct{}
}

// srvConn is one client connection: a reader goroutine decoding pipelined
// frames, a writer goroutine serializing responses, and one goroutine per
// in-flight future waiting for its resolution — which is what lets results
// complete out of order as epochs release.
type srvConn struct {
	s         *Server
	nc        net.Conn
	out       chan outMsg
	closed    chan struct{}
	closeOnce sync.Once

	// admitMu orders admission against Drain: handleSubmit holds it from
	// the draining check to inflight.Add, Drain takes it once before
	// inflight.Wait.
	admitMu   sync.Mutex
	inflight  sync.WaitGroup
	inflightN atomic.Int32
}

func (c *srvConn) close() {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.nc.Close()
		c.s.mu.Lock()
		delete(c.s.conns, c)
		c.s.mu.Unlock()
	})
}

// flushAndClose lets the writer drain queued frames before severing (drain
// path only; Kill severs immediately). The flush sentinel rides the out
// channel behind every already-queued frame, so its acknowledgement means
// those frames reached the socket.
func (c *srvConn) flushAndClose() {
	fl := make(chan struct{})
	c.send(outMsg{flush: fl})
	select {
	case <-fl:
	case <-c.closed:
	case <-time.After(time.Second):
	}
	c.close()
}

// send queues one frame unless the connection is closed.
func (c *srvConn) send(m outMsg) {
	select {
	case c.out <- m:
	case <-c.closed:
	}
}

func (c *srvConn) writeLoop() {
	for {
		select {
		case m := <-c.out:
			if m.flush != nil {
				close(m.flush)
				continue
			}
			if err := WriteFrame(c.nc, m.h, m.payload); err != nil {
				c.close()
				return
			}
		case <-c.closed:
			return
		}
	}
}

// reject answers a handshake failure with a coded GoAway and closes.
func (c *srvConn) reject(code uint16) {
	c.send(outMsg{h: Header{Type: FrameGoAway, Code: code}})
	c.flushAndClose()
}

func (c *srvConn) readLoop() {
	defer c.close()

	// Handshake: exactly one Hello, answered with HelloAck carrying the
	// negotiated version, the in-flight window, and the procedure table.
	var buf []byte
	h, p, err := ReadFrame(c.nc, buf)
	if err != nil {
		return
	}
	if h.Type != FrameHello {
		c.reject(CodeBadFrame)
		return
	}
	minV, maxV, err := ParseHello(p)
	if err != nil {
		c.reject(CodeBadFrame)
		return
	}
	ver, err := NegotiateVersion(minV, maxV)
	if err != nil {
		c.reject(CodeBadVersion)
		return
	}
	st := c.s.state.Load()
	if st == nil || c.s.draining.Load() {
		c.reject(CodeDraining)
		return
	}
	ack := AppendHelloAck(nil, ver, uint32(c.s.cfg.Window), st.procs)
	c.send(outMsg{h: Header{Type: FrameHelloAck, ReqID: h.ReqID}, payload: ack})

	for {
		h, p, err := ReadFrame(c.nc, buf)
		if err != nil {
			return
		}
		buf = p // frames are consumed synchronously; reuse the read buffer
		switch h.Type {
		case FrameSubmit, FramePrepare, FrameDecide:
			c.handleSubmit(h, p)
		case FramePing:
			c.send(outMsg{h: Header{Type: FramePong, ReqID: h.ReqID}})
		default:
			c.s.logf("wire: %s: unexpected %s", c.nc.RemoteAddr(), FrameName(h.Type))
			c.reject(CodeBadFrame)
			return
		}
	}
}

// handleSubmit admits one pipelined submission. Rejections (draining,
// window exceeded, queue full) are answered inline without executing
// anything; admitted requests get a per-future goroutine that sends the
// Result frame whenever the durable-commit future resolves — out of order
// relative to other requests on the same connection.
func (c *srvConn) handleSubmit(h Header, p []byte) {
	fut, st, reject := c.admit(h, p)
	if fut == nil {
		c.send(reject)
		return
	}
	go c.respond(h.ReqID, fut, st)
}

// admit runs one submission's admission under admitMu, from the draining
// check to the inflight.Add, so Drain's barrier on admitMu orders every
// admission either before its inflight.Wait (and the result is delivered)
// or after draining is set (and the request is bounced). It returns the
// admitted future, or the rejection frame to send.
func (c *srvConn) admit(h Header, p []byte) (Waiter, *feState, outMsg) {
	c.admitMu.Lock()
	defer c.admitMu.Unlock()
	st := c.s.state.Load()
	if st == nil || c.s.draining.Load() {
		return nil, nil, outMsg{h: Header{Type: FrameResult, Code: CodeDraining, ReqID: h.ReqID}}
	}
	procID, timeout, args, err := ParseSubmit(p, h.Flags)
	if err != nil {
		return nil, nil, outMsg{h: Header{Type: FrameResult, Code: CodeBadFrame, ReqID: h.ReqID},
			payload: AppendResultErr(nil, err.Error())}
	}
	if int(procID) >= len(st.procs) {
		return nil, nil, outMsg{h: Header{Type: FrameResult, Code: CodeUnknownProc, ReqID: h.ReqID},
			payload: AppendResultErr(nil, fmt.Sprintf("proc id %d outside table of %d", procID, len(st.procs)))}
	}
	if st.be.Brownout() {
		// Health watchdog brownout: shed at the wire before the frontend
		// sees the request. Backpressure (not a terminal Result) so the
		// client's pacing/retry machinery handles it like a full queue.
		return nil, nil, backpressure(h.ReqID, st)
	}
	if int(c.inflightN.Load()) >= c.s.cfg.Window {
		return nil, nil, backpressure(h.ReqID, st)
	}
	name := st.procs[procID]
	mode := ModeNormal
	switch {
	case h.Type == FramePrepare:
		mode = ModePrepare
	case h.Type == FrameDecide:
		mode = ModeDecide
	case h.Flags&FlagAdHoc != 0:
		mode = ModeAdHoc
	}
	// The wire carries a relative timeout (clock-skew safe); anchor it to
	// this server's clock at receipt.
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	fut, ok := st.be.TrySubmit(mode, name, args, deadline)
	if fut == nil {
		// Queue full: the request was never executed — backpressure, the
		// client retries. This is the admission-control path that keeps a
		// saturated Frontend from either blocking the reader (head-of-line
		// stalling every pipelined request) or dropping the connection.
		return nil, nil, backpressure(h.ReqID, st)
	}
	_ = ok // !ok with a non-nil future carries a terminal error; respond normally
	c.inflightN.Add(1)
	c.inflight.Add(1)
	return fut, st, outMsg{}
}

// backpressure builds the Backpressure frame answering reqID.
func backpressure(reqID uint64, st *feState) outMsg {
	return outMsg{
		h:       Header{Type: FrameBackpressure, Code: CodeBackpressure, ReqID: reqID},
		payload: AppendBackpressure(nil, uint32(st.be.QueueDepth()), uint32(st.be.QueueCap())),
	}
}

// respond waits one future out and sends its Result frame.
func (c *srvConn) respond(reqID uint64, fut Waiter, st *feState) {
	defer c.inflight.Done()
	defer c.inflightN.Add(-1)
	ts, err := fut.Wait()
	code, msg := ErrorCode(err)
	if code == CodeBackpressure {
		// The backend shed the admitted request after the fact (brownout, or
		// a router's open circuit breaker). The guarantee is identical to a
		// full queue — never executed — so surface the same Backpressure
		// frame and let the client's retry/backoff machinery handle it.
		c.send(backpressure(reqID, st))
		return
	}
	h := Header{Type: FrameResult, Code: code, ReqID: reqID}
	if code == CodeOK {
		c.send(outMsg{h: h, payload: AppendResultOK(nil, uint64(ts))})
		return
	}
	c.send(outMsg{h: h, payload: AppendResultErr(nil, msg)})
}
