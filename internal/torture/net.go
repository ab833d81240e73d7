package torture

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pacman"
	"pacman/client"
	"pacman/internal/wire"
)

// netWindow is the single daemon's per-connection in-flight window.
const netWindow = 32

// netTarget is RunNet's shape: Launch → serve the wire protocol → kill the
// daemon mid-load (severed connections, crashed instance, power-failed
// devices) → Restart → re-Attach and re-Listen on the same address → verify
// the oracle → prove the recovered incarnation serves over the socket.
//
// Two client populations exercise the two failure contracts: per-cycle load
// clients whose in-flight submissions must settle as exactly durable /
// connection-lost / never-executed when the daemon dies, and one prober
// client that persists across every crash — its reconnect-with-backoff loop
// must find each recovered incarnation, and its synchronous stamp is the
// serving proof.
type netTarget struct {
	*node
	srv           *wire.Server
	network, addr string
	prober        *client.Client
}

// openNet puts the daemon on network: a unix socket under the system temp
// directory (unique per process and seed), or an ephemeral loopback TCP
// port. The bound address is reused across the run's restarts.
func openNet(e *engine, network string) (target, error) {
	n, err := openNode(e, e.cfg.TxnsPerCycle, pacman.HealthConfig{})
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:0"
	if network == "unix" {
		addr = filepath.Join(os.TempDir(), fmt.Sprintf("pacman-torture-%d-%d.sock", os.Getpid(), e.cfg.Seed))
	}
	t := &netTarget{node: n, network: network,
		srv: wire.NewServer(wire.ServerConfig{Workers: e.cfg.Workers, Queue: 4 * e.cfg.Workers, Window: netWindow})}
	if t.addr, err = listen(t.srv, n.db, network, addr); err != nil {
		return nil, err
	}
	e.onClose(func() {
		t.srv.Close()
		if network == "unix" {
			os.Remove(t.addr)
		}
	})
	if t.prober, err = dialProber(network, t.addr); err != nil {
		return nil, err
	}
	e.onClose(t.prober.Close)
	return t, nil
}

func (t *netTarget) serve(e *engine, cycle int) ([]*journal, error) {
	tripped, ckpt, disarm := e.armServe(cycle, t.devices)
	defer disarm()
	clients, err := dialLoad(e.cfg.Clients, t.network, t.addr, netWindow)
	if err != nil {
		return nil, err
	}
	l := e.drive(cycle, wireInFlight, func(c int, name string, args pacman.Args) waiter {
		return clients[c].Submit(name, args)
	}, nil)
	if ckpt {
		e.checkpoint(t.db, cycle)
	}
	select {
	case <-tripped:
	case <-l.done:
	}
	l.stop.Store(true)
	// The daemon dies: connections sever mid-frame, then the instance
	// crashes and the devices lose their unsynced tails. In-flight futures
	// resolve ErrConnLost; a submission parked pre-send resolves
	// ErrClientClosed when its (per-cycle) client closes below.
	t.srv.Kill()
	t.crash()
	for _, c := range clients {
		c.Close()
	}
	<-l.done
	return l.js, nil
}

// recover restarts the instance, verifies it, and puts it back on the air:
// the same Server object adopts the recovered incarnation and reopens the
// same address (Listen handles the stale unix socket file the killed
// incarnation left behind).
func (t *netTarget) recover(e *engine, cycle int) (*pacman.RecoveryResult, error) {
	res, err := t.node.recover(e, cycle)
	if err == nil {
		_, err = listen(t.srv, t.db, t.network, t.addr)
	}
	return res, err
}

// listen attaches db to srv and opens addr, returning the bound address.
func listen(srv *wire.Server, db *pacman.DB, network, addr string) (string, error) {
	if err := srv.Attach(db); err != nil {
		return "", err
	}
	bound, err := srv.Listen(network, addr)
	if err != nil {
		return "", err
	}
	return bound.String(), nil
}

// exec proves serving through the long-lived prober: its redial loop has
// to find the new incarnation — crash→Restart→serve, observed entirely from
// the client side of the socket.
func (t *netTarget) exec(name string, args pacman.Args) (pacman.TS, error) {
	return t.prober.Submit(name, args).Wait()
}

// dialLoad opens a cycle's load clients; on failure it closes the ones
// already open.
func dialLoad(n int, network, addr string, window int) ([]*client.Client, error) {
	clients := make([]*client.Client, n)
	for i := range clients {
		c, err := client.Dial(network, addr, client.Config{
			Window: window, BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond,
		})
		if err != nil {
			for _, prev := range clients[:i] {
				prev.Close()
			}
			return nil, fmt.Errorf("torture: dial load client %d: %w", i, err)
		}
		clients[i] = c
	}
	return clients, nil
}

// dialProber opens the client that outlives every kill.
func dialProber(network, addr string) (*client.Client, error) {
	return client.Dial(network, addr, client.Config{
		Window: 4, BackoffMin: time.Millisecond, BackoffMax: 20 * time.Millisecond,
	})
}
