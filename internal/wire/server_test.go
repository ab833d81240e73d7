package wire

import (
	"net"
	"testing"
	"time"

	"pacman"
	"pacman/internal/proc"
	"pacman/internal/tuple"
	"pacman/internal/workload"
)

// launchServer boots a Bank instance behind a wire Server on an ephemeral
// TCP port. The epoch interval is a knob: long epochs keep durable-commit
// futures unresolved, which is how the backpressure test saturates the
// in-flight window deterministically.
func launchServer(t *testing.T, cfg ServerConfig, epoch time.Duration) (*pacman.DB, *Server, net.Addr) {
	t.Helper()
	spec := workload.Spec(workload.NewBank(64))
	bp := pacman.Blueprint{Tables: spec.Tables, Procedures: spec.Procs, Seed: spec.Seed}
	db, err := pacman.Launch(bp, pacman.Options{Logging: pacman.CommandLogging, EpochInterval: epoch})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cfg)
	if err := srv.Attach(db); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return db, srv, addr
}

// rawConn is a frame-level test client: no retry, no window management —
// it sees exactly what the server puts on the wire.
type rawConn struct {
	t     *testing.T
	nc    net.Conn
	procs map[string]uint32
	buf   []byte
}

func dialRaw(t *testing.T, addr net.Addr) *rawConn {
	t.Helper()
	nc, err := net.Dial(addr.Network(), addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{t: t, nc: nc}
}

func (c *rawConn) write(h Header, payload []byte) {
	c.t.Helper()
	if err := WriteFrame(c.nc, h, payload); err != nil {
		c.t.Fatalf("write %s: %v", FrameName(h.Type), err)
	}
}

func (c *rawConn) read() (Header, []byte) {
	c.t.Helper()
	h, p, err := ReadFrame(c.nc, c.buf)
	if err != nil {
		c.t.Fatalf("read frame: %v", err)
	}
	c.buf = p
	return h, append([]byte(nil), p...)
}

// handshake runs Hello/HelloAck and indexes the procedure table.
func (c *rawConn) handshake() {
	c.t.Helper()
	c.write(Header{Type: FrameHello}, AppendHello(nil, V1, V1))
	h, p := c.read()
	if h.Type != FrameHelloAck {
		c.t.Fatalf("handshake answered with %s code %s", FrameName(h.Type), CodeName(h.Code))
	}
	_, _, procs, err := ParseHelloAck(p)
	if err != nil {
		c.t.Fatal(err)
	}
	c.procs = make(map[string]uint32, len(procs))
	for i, name := range procs {
		c.procs[name] = uint32(i)
	}
}

func (c *rawConn) deposit(reqID uint64, acct, amount int64) {
	c.t.Helper()
	id, ok := c.procs["Deposit"]
	if !ok {
		c.t.Fatalf("Deposit missing from proc table %v", c.procs)
	}
	args := proc.Args{proc.A(tuple.I(acct)), proc.A(tuple.I(amount)), proc.A(tuple.I(1))}
	c.write(Header{Type: FrameSubmit, ReqID: reqID}, AppendSubmit(nil, id, args))
}

// TestServerPipelined floods one connection with pipelined submissions and
// checks that every request id comes back exactly once with CodeOK and a
// real commit timestamp — completion order is explicitly NOT asserted,
// because results resolve as epochs release, not in submit order.
func TestServerPipelined(t *testing.T) {
	_, _, addr := launchServer(t, ServerConfig{Workers: 4, Queue: 256, Window: 128}, time.Millisecond)
	c := dialRaw(t, addr)
	c.handshake()

	const n = 64
	for i := uint64(0); i < n; i++ {
		c.deposit(i, int64(i%16), 1)
	}
	seen := map[uint64]bool{}
	inOrder := true
	var prev uint64
	for i := 0; i < n; i++ {
		h, p := c.read()
		if h.Type != FrameResult || h.Code != CodeOK {
			t.Fatalf("result %d: %s code %s", i, FrameName(h.Type), CodeName(h.Code))
		}
		if seen[h.ReqID] {
			t.Fatalf("request %d answered twice", h.ReqID)
		}
		seen[h.ReqID] = true
		if i > 0 && h.ReqID < prev {
			inOrder = false
		}
		prev = h.ReqID
		if ts, _, err := ParseResult(h.Code, p); err != nil || ts == 0 {
			t.Fatalf("result %d: ts %d err %v", h.ReqID, ts, err)
		}
	}
	if len(seen) != n {
		t.Fatalf("settled %d/%d requests", len(seen), n)
	}
	t.Logf("pipelined %d requests, strictly in submit order: %v", n, inOrder)
}

// TestServerBackpressure saturates a tiny frontend (1 worker, queue of 1)
// under a long epoch so admitted futures stay pending, and checks that the
// overflow comes back as Backpressure frames — never dropped connections,
// never blocked pipelines — while the admitted prefix still commits.
func TestServerBackpressure(t *testing.T) {
	_, _, addr := launchServer(t, ServerConfig{Workers: 1, Queue: 1, Window: 4}, 200*time.Millisecond)
	c := dialRaw(t, addr)
	c.handshake()

	const n = 24
	for i := uint64(0); i < n; i++ {
		c.deposit(i, 3, 1)
	}
	var oks, bps int
	for i := 0; i < n; i++ {
		h, p := c.read()
		switch h.Type {
		case FrameResult:
			if h.Code != CodeOK {
				t.Fatalf("result code %s", CodeName(h.Code))
			}
			oks++
		case FrameBackpressure:
			if len(p) != 0 || h.Code != CodeBackpressure {
				t.Fatalf("backpressure frame code %s payload %x: want CodeBackpressure and no payload", CodeName(h.Code), p)
			}
			bps++
		default:
			t.Fatalf("unexpected %s", FrameName(h.Type))
		}
	}
	if bps == 0 {
		t.Fatal("saturated frontend produced no backpressure frames")
	}
	if oks == 0 {
		t.Fatal("no submission was admitted at all")
	}
	t.Logf("admitted %d, pushed back %d", oks, bps)
}

// TestServerHandshakeRejections covers the coded GoAway paths: a client
// speaking only a future protocol version, and a client whose first frame
// is not Hello.
func TestServerHandshakeRejections(t *testing.T) {
	_, _, addr := launchServer(t, ServerConfig{}, time.Millisecond)

	c := dialRaw(t, addr)
	c.write(Header{Type: FrameHello}, AppendHello(nil, V1+1, V1+7))
	if h, _ := c.read(); h.Type != FrameGoAway || h.Code != CodeBadVersion {
		t.Fatalf("version mismatch answered %s code %s", FrameName(h.Type), CodeName(h.Code))
	}

	c2 := dialRaw(t, addr)
	c2.write(Header{Type: FramePing}, nil)
	if h, _ := c2.read(); h.Type != FrameGoAway || h.Code != CodeBadFrame {
		t.Fatalf("bad first frame answered %s code %s", FrameName(h.Type), CodeName(h.Code))
	}
}

// TestServerSubmitRejections covers per-request failure frames that must
// not poison the rest of the pipeline: unknown proc ids and undecodable
// payloads each get their own coded Result, after which a valid submit on
// the same connection still commits.
func TestServerSubmitRejections(t *testing.T) {
	_, _, addr := launchServer(t, ServerConfig{}, time.Millisecond)
	c := dialRaw(t, addr)
	c.handshake()

	c.write(Header{Type: FrameSubmit, ReqID: 1}, AppendSubmit(nil, 9999, proc.Args{}))
	if h, _ := c.read(); h.Type != FrameResult || h.Code != CodeUnknownProc {
		t.Fatalf("unknown proc answered %s code %s", FrameName(h.Type), CodeName(h.Code))
	}

	c.write(Header{Type: FrameSubmit, ReqID: 2}, []byte{0xff, 0xff})
	if h, _ := c.read(); h.Type != FrameResult || h.Code != CodeBadFrame {
		t.Fatalf("garbage submit answered %s code %s", FrameName(h.Type), CodeName(h.Code))
	}

	c.deposit(3, 1, 5)
	if h, _ := c.read(); h.Type != FrameResult || h.Code != CodeOK || h.ReqID != 3 {
		t.Fatalf("follow-up submit answered %s code %s req %d", FrameName(h.Type), CodeName(h.Code), h.ReqID)
	}
}

// TestServerDrainDuringLoad admits a batch of submissions whose durable
// futures are still pending (long epoch), then drains, and checks the
// wire-visible contract: every admitted request settles with a result, the
// connection sees GoAway CodeDraining, and the listener stops accepting.
func TestServerDrainDuringLoad(t *testing.T) {
	_, srv, addr := launchServer(t, ServerConfig{Workers: 2, Queue: 64, Window: 64}, 100*time.Millisecond)
	c := dialRaw(t, addr)
	c.handshake()

	const n = 16
	for i := uint64(0); i < n; i++ {
		c.deposit(i, int64(i%8), 2)
	}
	// The read loop is serial, so a Pong proves every submit above has been
	// read and admitted — the futures are in flight, the receive buffer is
	// empty, and Drain below races only with epoch release, as intended.
	c.write(Header{Type: FramePing, ReqID: 999}, nil)
	results := 0
	for {
		h, _ := c.read()
		if h.Type == FramePong {
			break
		}
		if h.Type != FrameResult || h.Code != CodeOK {
			t.Fatalf("pre-drain frame %s code %s", FrameName(h.Type), CodeName(h.Code))
		}
		results++ // epoch released early on a slow machine; still counts
	}
	done := make(chan struct{})
	go func() { srv.Drain(5 * time.Second); close(done) }()

	// Read until the server flushes and severs: every admitted request must
	// settle with a result frame before the FIN, and the drain must have
	// been announced.
	var goaways int
	for {
		h, _, err := ReadFrame(c.nc, nil)
		if err != nil {
			break
		}
		switch h.Type {
		case FrameResult:
			if h.Code != CodeOK {
				t.Fatalf("in-flight request settled %s", CodeName(h.Code))
			}
			results++
		case FrameGoAway:
			if h.Code != CodeDraining {
				t.Fatalf("goaway code %s", CodeName(h.Code))
			}
			goaways++
		default:
			t.Fatalf("unexpected %s during drain", FrameName(h.Type))
		}
	}
	<-done
	if results != n {
		t.Fatalf("drain settled %d/%d admitted requests", results, n)
	}
	if goaways == 0 {
		t.Error("drain never announced GoAway")
	}
	// A fresh connection is refused with CodeDraining, not a silent RST.
	if nc, err := net.Dial(addr.Network(), addr.String()); err == nil {
		nc.Close()
		t.Fatal("listener still accepting after drain")
	}
}
