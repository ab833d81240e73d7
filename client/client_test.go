package client_test

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"pacman"
	"pacman/client"
	"pacman/internal/wire"
	"pacman/internal/workload"
)

func bankBlueprint() pacman.Blueprint {
	spec := workload.Spec(workload.NewBank(64))
	return pacman.Blueprint{Tables: spec.Tables, Procedures: spec.Procs, Seed: spec.Seed}
}

func depositArgs(acct, amount int64) pacman.Args {
	return pacman.Args{pacman.A(pacman.I(acct)), pacman.A(pacman.I(amount)), pacman.A(pacman.I(1))}
}

func launch(t *testing.T, scfg wire.ServerConfig) (*pacman.DB, *wire.Server, net.Addr) {
	t.Helper()
	db, err := pacman.Launch(bankBlueprint(), pacman.Options{Logging: pacman.CommandLogging, EpochInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(scfg)
	if err := srv.Attach(db); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return db, srv, addr
}

// TestClientPipelinedDurable drives a window's worth of pipelined
// submissions through the public client and checks every future resolves
// durable with a commit timestamp carrying a released epoch.
func TestClientPipelinedDurable(t *testing.T) {
	db, srv, addr := launch(t, wire.ServerConfig{Workers: 4, Queue: 256})
	defer db.Close()
	defer srv.Close()

	c, err := client.Dial("tcp", addr.String(), client.Config{Window: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 96
	futs := make([]*client.Future, n)
	for i := range futs {
		futs[i] = c.Submit("Deposit", depositArgs(int64(i%16), 1))
	}
	for i, f := range futs {
		ts, err := f.Wait()
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if ts == 0 || f.Epoch() == 0 {
			t.Fatalf("submit %d: ts %x epoch %d", i, ts, f.Epoch())
		}
		if f.Latency() <= 0 {
			t.Fatalf("submit %d: nonpositive latency", i)
		}
	}

	if _, err := c.Submit("NoSuchProc", nil).Wait(); !errors.Is(err, wire.ErrUnknownProc) {
		t.Fatalf("unknown proc: %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
}

// TestClientBackpressureRetry points a wide client window at a deliberately
// tiny frontend (1 worker, queue of 1). The server pushes back with
// Backpressure frames; the client must absorb them internally — resubmitting
// with backoff, since a pushed-back request never executed — so that every
// future still resolves durable.
func TestClientBackpressureRetry(t *testing.T) {
	db, srv, addr := launch(t, wire.ServerConfig{Workers: 1, Queue: 1, Window: 64})
	defer db.Close()
	defer srv.Close()

	c, err := client.Dial("tcp", addr.String(), client.Config{Window: 64, BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 48
	futs := make([]*client.Future, n)
	for i := range futs {
		futs[i] = c.Submit("Deposit", depositArgs(int64(i%16), 1))
	}
	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
}

// TestClientReconnectAcrossCrash is the tentpole's availability story end
// to end at the client: kill the daemon mid-load, crash the instance,
// Restart from its devices, re-Attach and re-Listen on the same address —
// and check that (a) futures in flight at the kill resolve ErrConnLost
// (outcome unknown, never auto-retried), (b) submissions issued during the
// outage park until the reconnect and then commit durably against the
// recovered incarnation.
func TestClientReconnectAcrossCrash(t *testing.T) {
	bp := bankBlueprint()
	db, err := pacman.Launch(bp, pacman.Options{Logging: pacman.CommandLogging, EpochInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(wire.ServerConfig{Workers: 4, Queue: 256})
	if err := srv.Attach(db); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	c, err := client.Dial("tcp", addr.String(), client.Config{Window: 64, BackoffMin: time.Millisecond, BackoffMax: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Phase 1: a batch in flight when the daemon dies. Every future must
	// settle as either durable (result beat the kill) or ErrConnLost —
	// nothing may hang, nothing may surface a mystery error.
	const n = 64
	futs := make([]*client.Future, n)
	for i := range futs {
		futs[i] = c.Submit("Deposit", depositArgs(int64(i%16), 1))
	}
	srv.Kill()
	db.Crash()

	var durable, lost int
	for i, f := range futs {
		_, err := f.Wait()
		switch {
		case err == nil:
			durable++
		case errors.Is(err, client.ErrConnLost):
			lost++
		case errors.Is(err, pacman.ErrCrashed):
			lost++ // result frame beat the kill, carrying the crash
		default:
			t.Fatalf("submit %d: unexpected outcome %v", i, err)
		}
	}
	t.Logf("at kill: %d durable, %d unknown", durable, lost)

	// Phase 2: a submission during the outage must park until the reconnect
	// (Submit blocks while the connection is down — that IS the flow
	// control), so it rides a goroutine here.
	outageCh := make(chan *client.Future, 1)
	go func() { outageCh <- c.Submit("Deposit", depositArgs(7, 5)) }()
	select {
	case f := <-outageCh:
		t.Fatalf("outage submit returned with no server: %v", f.Err())
	case <-time.After(20 * time.Millisecond):
	}

	// Phase 3: recover and serve the same address; the client's redial loop
	// finds the new incarnation on its own.
	db2, _, err := pacman.Restart(db.Devices(), bp, pacman.RecoverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := srv.Attach(db2); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Listen("tcp", addr.String()); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if _, err := (<-outageCh).Wait(); err != nil {
		t.Fatalf("outage submit after restart: %v", err)
	}
	if _, err := c.Submit("Deposit", depositArgs(3, 2)).Wait(); err != nil {
		t.Fatalf("post-restart exec: %v", err)
	}
}

// TestClientDrainAndClose checks the graceful half: a server Drain settles
// every in-flight future with a result before severing, and a closed client
// resolves (not hangs) anything submitted afterwards.
func TestClientDrainAndClose(t *testing.T) {
	db, srv, addr := launch(t, wire.ServerConfig{Workers: 2, Queue: 256})
	defer db.Close()

	c, err := client.Dial("tcp", addr.String(), client.Config{Window: 32, BackoffMin: time.Millisecond, BackoffMax: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	const n = 32
	futs := make([]*client.Future, n)
	for i := range futs {
		futs[i] = c.Submit("Deposit", depositArgs(int64(i%16), 1))
	}
	// The server reads serially, so a Pong proves every Submit above was
	// read; unread bytes at the sever would otherwise resolve ErrConnLost.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	for c.Stats().Pongs == 0 {
		time.Sleep(time.Millisecond)
	}
	srv.Drain(5 * time.Second)

	for i, f := range futs {
		_, err := f.Wait()
		if err != nil && !(errors.Is(err, client.ErrConnLost) && errors.Is(err, wire.ErrDraining)) {
			t.Fatalf("submit %d: want durable or a drain bounce, got %v", i, err)
		}
	}

	c.Close()
	if _, err := c.Submit("Deposit", depositArgs(1, 1)).Wait(); !errors.Is(err, client.ErrClientClosed) {
		t.Fatalf("post-close exec: %v", err)
	}
}

// TestClientDeadlineWhileDisconnected: a deadline that expires while the
// client has no link (server killed, never back) must release the parked
// submission — the future resolves CodeDeadlineExceeded on time and no
// goroutine is left behind waiting for a reconnect.
func TestClientDeadlineWhileDisconnected(t *testing.T) {
	db, srv, addr := launch(t, wire.ServerConfig{Workers: 2, Queue: 16})
	defer db.Close()
	defer srv.Close()

	c, err := client.Dial("tcp", addr.String(), client.Config{Window: 4, BackoffMin: time.Millisecond, BackoffMax: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Kill()

	for attempt := 0; ; attempt++ {
		before := runtime.NumGoroutine()
		futCh := make(chan *client.Future, 1)
		go func() {
			futCh <- c.SubmitRequest(client.Request{Proc: "Deposit", Args: depositArgs(1, 1), Timeout: 50 * time.Millisecond})
		}()
		var err error
		select {
		case f := <-futCh:
			err = f.Err()
		case <-time.After(time.Second):
			t.Fatal("deadline submit did not resolve within 1s while disconnected")
		}
		if errors.Is(err, client.ErrConnLost) && attempt < 3 {
			continue // sent before the client saw the kill: outcome unknown
		}
		if !errors.Is(err, pacman.ErrDeadlineExceeded) {
			t.Fatalf("err = %v, want CodeDeadlineExceeded", err)
		}
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("goroutines = %d after resolution, want <= %d", runtime.NumGoroutine(), before)
			}
		}
		return
	}
}

// TestClientKeepAliveDetectsStalledServer handshakes against a fake server
// that then goes silent — it accepts frames into the kernel buffer but
// never answers anything, the wedged-peer case a dead TCP connection never
// exercises. With KeepAlive on, the client must ping, miss the answer,
// fail the link (resolving the in-flight future ErrConnLost) — all without
// a Submit ever timing out on its own.
func TestClientKeepAliveDetectsStalledServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// Fake server: complete the PAC1 handshake, then stall forever.
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		h, p, err := wire.ReadFrame(nc, nil)
		if err != nil || h.Type != wire.FrameHello {
			nc.Close()
			return
		}
		if _, _, err := wire.ParseHello(p); err != nil {
			nc.Close()
			return
		}
		ack := wire.AppendHelloAck(nil, wire.V1, wire.DefaultWindow, []string{"Deposit"})
		wire.WriteFrame(nc, wire.Header{Type: wire.FrameHelloAck}, ack)
		// Stall: never read, never write again. Keep nc open so the TCP
		// stack gives the client no error of its own.
		select {}
	}()

	const interval = 20 * time.Millisecond
	c, err := client.Dial("tcp", ln.Addr().String(), client.Config{
		Window: 4, KeepAlive: interval,
		DialTimeout: time.Second, BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fut := c.Submit("Deposit", depositArgs(1, 1))

	// The prober needs one idle interval to send the Ping and one more to
	// miss the Pong; anything beyond ~5 intervals means keepalive is not
	// doing its job.
	select {
	case <-fut.Done():
	case <-time.After(10 * interval):
		t.Fatal("keepalive did not fail the stalled link")
	}
	if _, err := fut.Wait(); !errors.Is(err, client.ErrConnLost) {
		t.Fatalf("stalled-link future: want ErrConnLost, got %v", err)
	}
}
