package client_test

import (
	"errors"
	"net"
	"testing"
	"time"

	"pacman/client"
	"pacman/internal/wire"
)

// shedServer is a fake PAC1 endpoint: it completes the handshake and
// answers every Submit with the reply frame (its ReqID filled in), never
// executing anything — a Backpressure frame is the wire behavior of an
// instance held in brownout, a CodeDraining Result that of one draining.
func shedServer(t *testing.T, reply wire.Header, payload []byte) net.Addr {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				h, p, err := wire.ReadFrame(nc, nil)
				if err != nil || h.Type != wire.FrameHello {
					return
				}
				if _, _, err := wire.ParseHello(p); err != nil {
					return
				}
				ack := wire.AppendHelloAck(nil, wire.V1, wire.DefaultWindow, []string{"Deposit"})
				if wire.WriteFrame(nc, wire.Header{Type: wire.FrameHelloAck}, ack) != nil {
					return
				}
				buf := []byte(nil)
				for {
					h, p, err := wire.ReadFrame(nc, buf)
					if err != nil {
						return
					}
					buf = p
					switch h.Type {
					case wire.FrameSubmit:
						r := reply // per connection: connections run concurrently
						r.ReqID = h.ReqID
						if wire.WriteFrame(nc, r, payload) != nil {
							return
						}
					case wire.FramePing:
						if wire.WriteFrame(nc, wire.Header{Type: wire.FramePong, ReqID: h.ReqID}, nil) != nil {
							return
						}
					}
				}
			}(nc)
		}
	}()
	return ln.Addr()
}

// TestClientRetryBudgetExhaustion: a server shedding every Submit must
// produce a typed ErrBackpressure failure after exactly RetryBudget
// attempts — never an unbounded retry storm — with the attempt count on
// the StatusError and the shed visible in Stats.
func TestClientRetryBudgetExhaustion(t *testing.T) {
	addr := shedServer(t, wire.Header{Type: wire.FrameBackpressure}, nil)
	const budget = 3
	c, err := client.Dial("tcp", addr.String(), client.Config{
		Window: 4, RetryBudget: budget,
		BackoffMin: time.Millisecond, BackoffMax: 4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	_, werr := c.Submit("Deposit", depositArgs(1, 1)).Wait()
	if werr == nil {
		t.Fatal("submit against a shedding server succeeded")
	}
	if !errors.Is(werr, wire.ErrBackpressure) {
		t.Fatalf("err = %v, want ErrBackpressure", werr)
	}
	var se *wire.StatusError
	if !errors.As(werr, &se) || se.Attempts != budget {
		t.Fatalf("err = %#v, want StatusError with Attempts=%d", werr, budget)
	}
	// Budget of 3 means at most 2 backoffs of <= 4ms each; generous bound.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("budget exhaustion took %v; retries not bounded", elapsed)
	}
	st := c.Stats()
	if st.Shed != 1 || st.Retries != budget-1 {
		t.Fatalf("stats = %+v, want Shed=1 Retries=%d", st, budget-1)
	}
}

// TestClientDrainBounceResolves: a CodeDraining Result resolves the call at
// once — never parked, never retried — with an error that is both
// ErrConnLost (the link is going away) and wire.ErrDraining (never
// executed, so the caller may resubmit).
func TestClientDrainBounceResolves(t *testing.T) {
	addr := shedServer(t, wire.Header{Type: wire.FrameResult, Code: wire.CodeDraining}, nil)
	c, err := client.Dial("tcp", addr.String(), client.Config{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fut := c.Submit("Deposit", depositArgs(1, 1))
	select {
	case <-fut.Done():
	case <-time.After(time.Second):
		t.Fatal("drain bounce did not resolve within 1s")
	}
	if err := fut.Err(); !errors.Is(err, client.ErrConnLost) || !errors.Is(err, wire.ErrDraining) {
		t.Fatalf("err = %v, want ErrConnLost and ErrDraining", err)
	}
	if st := c.Stats(); st.Retries != 0 {
		t.Fatalf("stats = %+v, want Retries=0", st)
	}
}

// TestClientPingRTT: Ping round-trips populate the liveness telemetry —
// pong counts and a smoothed RTT — against a real server.
func TestClientPingRTT(t *testing.T) {
	db, srv, addr := launch(t, wire.ServerConfig{Workers: 2, Queue: 16, Window: 16})
	defer db.Close()
	defer srv.Close()

	c, err := client.Dial("tcp", addr.String(), client.Config{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 3; i++ {
		if err := c.Ping(); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Pongs < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("pongs never arrived: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	st := c.Stats()
	if st.Pings < 3 || st.RTT <= 0 || st.LastRTT <= 0 {
		t.Fatalf("stats = %+v, want pings>=3 and positive RTT", st)
	}
}
