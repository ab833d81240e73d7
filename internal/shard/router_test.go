package shard

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"pacman"
	"pacman/client"
	"pacman/internal/simdisk"
	"pacman/internal/wire"
)

// testCluster is a live 2-shard Smallbank deployment over loopback TCP.
type testCluster struct {
	cluster *Cluster
	dbs     []*pacman.DB
	srvs    []*wire.Server
	addrs   []string
}

func launchCluster(t *testing.T, shards, customers int) *testCluster {
	t.Helper()
	tc := &testCluster{cluster: NewSmallbankCluster(Config{Shards: shards, Customers: customers})}
	for i := 0; i < shards; i++ {
		db := pacman.MustLaunch(tc.cluster.ShardBlueprint(i), tc.cluster.ShardOptions(pacman.Options{
			Logging:       pacman.CommandLogging,
			EpochInterval: time.Millisecond,
		}))
		srv := wire.NewServer(wire.ServerConfig{Workers: 2})
		if err := srv.Attach(db); err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tc.dbs = append(tc.dbs, db)
		tc.srvs = append(tc.srvs, srv)
		tc.addrs = append(tc.addrs, addr.String())
	}
	t.Cleanup(func() {
		for _, s := range tc.srvs {
			s.Close()
		}
		for _, d := range tc.dbs {
			d.Close()
		}
	})
	return tc
}

func (tc *testCluster) dial(t *testing.T) *client.Multi {
	t.Helper()
	m, err := client.DialMulti("tcp", tc.addrs, client.Config{Window: 8, KeepAlive: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// checking reads a customer's CHECKING balance straight out of a shard's
// engine.
func checking(t *testing.T, db *pacman.DB, custid uint64) float64 {
	t.Helper()
	r, ok := db.Table("CHECKING").GetRow(custid)
	if !ok {
		t.Fatalf("CHECKING row %d missing", custid)
	}
	return r.LatestData()[1].Float()
}

// status2pc reads a shard's 2PC status row for one gtid; 0 means no row
// (no piece ever ran there).
func status2pc(db *pacman.DB, gtid uint64) int64 {
	r, ok := db.Table(StatusTable).GetRow(gtid)
	if !ok {
		return 0
	}
	return r.LatestData()[1].Int()
}

func payArgs(c1, c2 int64, amt float64) pacman.Args {
	return pacman.Args{pacman.A(pacman.I(c1)), pacman.A(pacman.I(c2)), pacman.A(pacman.F(amt))}
}

// TestRouterEndToEnd drives single-shard forwards, a cross-shard commit,
// a funds-check abort, and the no-split error through a live 2-shard
// cluster. Customers 1–20 live on shard 0, 21–40 on shard 1.
func TestRouterEndToEnd(t *testing.T) {
	tc := launchCluster(t, 2, 40)
	dev := simdisk.New("router-log", simdisk.Config{})
	r, err := NewRouter(tc.cluster, tc.dial(t), dev, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Single-shard: forwarded untouched to the owning shard.
	if _, err := r.Submit("DepositChecking",
		pacman.Args{pacman.A(pacman.I(3)), pacman.A(pacman.F(25))}).Wait(); err != nil {
		t.Fatalf("single-shard deposit: %v", err)
	}
	if got := checking(t, tc.dbs[0], 3); got != 1025 {
		t.Fatalf("shard 0 CHECKING(3) = %v, want 1025", got)
	}
	if _, err := r.Submit("Balance", pacman.Args{pacman.A(pacman.I(30))}).Wait(); err != nil {
		t.Fatalf("single-shard balance on shard 1: %v", err)
	}

	// Cross-shard commit: debit on shard 0, credit on shard 1, both
	// statuses committed by the time the future resolves.
	ts, err := r.Submit("SendPayment", payArgs(1, 30, 100)).Wait()
	if err != nil {
		t.Fatalf("cross-shard SendPayment: %v", err)
	}
	if ts == 0 {
		t.Fatal("cross-shard commit resolved with zero timestamp")
	}
	if got := checking(t, tc.dbs[0], 1); got != 900 {
		t.Fatalf("debit shard CHECKING(1) = %v, want 900", got)
	}
	if got := checking(t, tc.dbs[1], 30); got != 1100 {
		t.Fatalf("credit shard CHECKING(30) = %v, want 1100", got)
	}
	const gtid1 = 1 // first cross-shard transaction on a fresh router
	for i, db := range tc.dbs {
		if st := status2pc(db, gtid1); st != StatusCommitted {
			t.Fatalf("shard %d gtid %d status = %d, want committed", i, gtid1, st)
		}
	}

	// Cross-shard abort: the debit piece votes no (insufficient funds);
	// the credit piece's prepared effect is compensated on the other shard.
	// The future resolves at the abort decision, so wait for the abort
	// pieces themselves to land before auditing shard state.
	if _, err := r.Submit("SendPayment", payArgs(2, 31, 1e9)).Wait(); err == nil {
		t.Fatal("unfunded cross-shard SendPayment committed")
	}
	if !r.Quiesce(5 * time.Second) {
		t.Fatal("router did not quiesce abort delivery")
	}
	if got := checking(t, tc.dbs[0], 2); got != 1000 {
		t.Fatalf("after abort, CHECKING(2) = %v, want 1000", got)
	}
	if got := checking(t, tc.dbs[1], 31); got != 1000 {
		t.Fatalf("after abort, CHECKING(31) = %v, want 1000", got)
	}
	for i, db := range tc.dbs {
		if st := status2pc(db, gtid1+1); st != StatusAborted {
			t.Fatalf("shard %d gtid %d status = %d, want aborted", i, gtid1+1, st)
		}
	}

	// A cross-shard procedure without a registered split fails loudly
	// instead of executing half a transaction.
	if _, err := r.Submit("Amalgamate",
		pacman.Args{pacman.A(pacman.I(4)), pacman.A(pacman.I(34))}).Wait(); err == nil {
		t.Fatal("cross-shard Amalgamate did not fail")
	}
	if got := checking(t, tc.dbs[0], 4); got != 1000 {
		t.Fatalf("after rejected Amalgamate, CHECKING(4) = %v, want 1000", got)
	}

	// Ad-hoc invocations cannot span shards.
	w, ok := r.TrySubmit(wire.ModeAdHoc, "SendPayment", payArgs(5, 35, 1), time.Time{})
	if !ok {
		t.Fatal("TrySubmit backpressured an empty router")
	}
	if _, err := w.Wait(); err == nil {
		t.Fatal("ad-hoc cross-shard invocation succeeded")
	}
}

// TestRouterRecovery leaves two in-doubt transactions in a decision log —
// one decided (commit, no end) and one undecided (begin only) — with their
// prepares already applied on the shards, then builds a fresh router over
// that log and verifies construction settles both: the decided one is
// re-delivered to committed, the undecided one presumed aborted and
// compensated.
func TestRouterRecovery(t *testing.T) {
	tc := launchCluster(t, 2, 40)
	m := tc.dial(t)

	// gtid 7: both prepares applied and durable, decision logged commit.
	g7, err := tc.cluster.Split("SendPayment", 7, []int{0, 1}, payArgs(5, 25, 75))
	if err != nil {
		t.Fatal(err)
	}
	// gtid 9: both prepares applied, no decision.
	g9, err := tc.cluster.Split("SendPayment", 9, []int{0, 1}, payArgs(6, 26, 40))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*gtxn{g7, g9} {
		for _, p := range g.Parts {
			if _, err := m.Client(p.Shard).SubmitRequest(client.Request{Proc: p.Prepare.Proc, Args: p.Prepare.Args, Mode: wire.ModePrepare}).Wait(); err != nil {
				t.Fatalf("gtid %d prepare on shard %d: %v", g.GTID, p.Shard, err)
			}
		}
	}
	if got := checking(t, tc.dbs[0], 5); got != 925 {
		t.Fatalf("prepared debit CHECKING(5) = %v, want 925", got)
	}

	// Write the decision log the crashed router incarnation would have left.
	dev := simdisk.New("router-log", simdisk.Config{})
	log, _, _, err := openCoordLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Begin(g7); err != nil {
		t.Fatal(err)
	}
	if err := log.Commit(7); err != nil {
		t.Fatal(err)
	}
	if err := log.Begin(g9); err != nil {
		t.Fatal(err)
	}

	// A fresh router over the same log resolves both before serving.
	r, err := NewRouter(tc.cluster, m, dev, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// gtid 7 committed: money moved, statuses committed everywhere.
	if got := checking(t, tc.dbs[0], 5); got != 925 {
		t.Fatalf("recovered commit CHECKING(5) = %v, want 925", got)
	}
	if got := checking(t, tc.dbs[1], 25); got != 1075 {
		t.Fatalf("recovered commit CHECKING(25) = %v, want 1075", got)
	}
	for i, db := range tc.dbs {
		if st := status2pc(db, 7); st != StatusCommitted {
			t.Fatalf("shard %d gtid 7 status = %d, want committed", i, st)
		}
	}

	// gtid 9 presumed abort: prepared effects compensated, statuses aborted.
	if got := checking(t, tc.dbs[0], 6); got != 1000 {
		t.Fatalf("recovered abort CHECKING(6) = %v, want 1000", got)
	}
	if got := checking(t, tc.dbs[1], 26); got != 1000 {
		t.Fatalf("recovered abort CHECKING(26) = %v, want 1000", got)
	}
	for i, db := range tc.dbs {
		if st := status2pc(db, 9); st != StatusAborted {
			t.Fatalf("shard %d gtid 9 status = %d, want aborted", i, st)
		}
	}

	// The recovered gtid sequence resumes past everything the shards saw:
	// the next cross-shard transaction takes gtid 10.
	if _, err := r.Submit("SendPayment", payArgs(8, 28, 10)).Wait(); err != nil {
		t.Fatalf("post-recovery SendPayment: %v", err)
	}
	for i, db := range tc.dbs {
		if st := status2pc(db, 10); st != StatusCommitted {
			t.Fatalf("shard %d gtid 10 status = %d, want committed", i, st)
		}
	}
}

// TestMixedStreamRecovery interleaves command-logged local transactions
// with value-logged 2PC pieces on ONE shard, then crashes and restarts it —
// twice — verifying the mixed log stream replays to the right state: the
// deposits re-execute, the pieces reload as values.
func TestMixedStreamRecovery(t *testing.T) {
	cluster := NewSmallbankCluster(Config{Shards: 1, Customers: 10})
	bp := cluster.ShardBlueprint(0)
	opts := cluster.ShardOptions(pacman.Options{
		Logging:       pacman.CommandLogging,
		EpochInterval: time.Millisecond,
	})
	db := pacman.MustLaunch(bp, opts)
	fe := db.MustFrontend(pacman.FrontendConfig{})

	gtidArg := func(g int64) pacman.Args { return pacman.Args{pacman.A(pacman.I(g))} }
	pieceArgs := func(g, c int64, amt float64) pacman.Args {
		return pacman.Args{pacman.A(pacman.I(g)), pacman.A(pacman.I(c)), pacman.A(pacman.F(amt))}
	}
	deposit := func(c int64, amt float64) *pacman.Future {
		return fe.Submit("DepositChecking", pacman.Args{pacman.A(pacman.I(c)), pacman.A(pacman.F(amt))})
	}

	// Interleave: local deposits on the same accounts the dist pieces
	// touch, with piece pairs (prepare durable before its decide goes in).
	var futs []*pacman.Future
	futs = append(futs, deposit(1, 10), deposit(2, 10))
	if _, err := fe.SubmitRequest(pacman.Request{Proc: "Pay2PCDebit", Args: pieceArgs(1, 1, 100), Mode: pacman.ModeDist}).Wait(); err != nil {
		t.Fatalf("dist debit: %v", err)
	}
	futs = append(futs, deposit(1, 10), fe.SubmitRequest(pacman.Request{Proc: "Pay2PCCommit", Args: gtidArg(1), Mode: pacman.ModeDist}))
	if _, err := fe.SubmitRequest(pacman.Request{Proc: "Pay2PCCredit", Args: pieceArgs(2, 2, 50), Mode: pacman.ModeDist}).Wait(); err != nil {
		t.Fatalf("dist credit: %v", err)
	}
	futs = append(futs, fe.SubmitRequest(pacman.Request{Proc: "Pay2PCCommit", Args: gtidArg(2), Mode: pacman.ModeDist}), deposit(2, 10))
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	want1, want2 := 1000.0+20-100, 1000.0+20+50
	if got := checking(t, db, 1); got != want1 {
		t.Fatalf("pre-crash CHECKING(1) = %v, want %v", got, want1)
	}

	verify := func(db *pacman.DB, round string) {
		t.Helper()
		if got := checking(t, db, 1); got != want1 {
			t.Errorf("%s: CHECKING(1) = %v, want %v", round, got, want1)
		}
		if got := checking(t, db, 2); got != want2 {
			t.Errorf("%s: CHECKING(2) = %v, want %v", round, got, want2)
		}
		for g := uint64(1); g <= 2; g++ {
			if st := status2pc(db, g); st != StatusCommitted {
				t.Errorf("%s: gtid %d status = %d, want committed", round, g, st)
			}
		}
	}

	db.Crash()
	db2, res, err := pacman.Restart(db.Devices(), bp, pacman.RecoverConfig{Serve: opts})
	if err != nil {
		t.Fatal(err)
	}
	if res.Entries == 0 {
		t.Fatal("first recovery replayed no log entries")
	}
	verify(db2, "first restart")

	// Re-entrancy: commit more mixed work on the recovered instance, crash
	// again, and recover the doubly-mixed stream.
	fe2 := db2.MustFrontend(pacman.FrontendConfig{})
	if _, err := fe2.SubmitRequest(pacman.Request{Proc: "Pay2PCDebit", Args: pieceArgs(3, 1, 30), Mode: pacman.ModeDist}).Wait(); err != nil {
		t.Fatalf("post-restart dist debit: %v", err)
	}
	if _, err := fe2.SubmitRequest(pacman.Request{Proc: "Pay2PCCommit", Args: gtidArg(3), Mode: pacman.ModeDist}).Wait(); err != nil {
		t.Fatalf("post-restart dist commit: %v", err)
	}
	if _, err := fe2.Submit("DepositChecking",
		pacman.Args{pacman.A(pacman.I(1)), pacman.A(pacman.F(5))}).Wait(); err != nil {
		t.Fatal(err)
	}
	want1 += -30 + 5

	db2.Crash()
	db3, _, err := pacman.Restart(db2.Devices(), bp, pacman.RecoverConfig{Serve: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	verify(db3, "second restart")
	if st := status2pc(db3, 3); st != StatusCommitted {
		t.Errorf("second restart: gtid 3 status = %d, want committed", st)
	}
}

// wedgeProxy is a TCP proxy whose forwarding can be wedged: while wedged,
// the pipe goroutines block BEFORE writing, so every byte queues (in the
// proxy or the kernel) and nothing is lost or torn — exactly a hung, not
// crashed, participant. Unwedging releases the held bytes and the shard
// "returns" with its stream intact.
type wedgeProxy struct {
	addr string
	ln   net.Listener

	mu     sync.Mutex
	cond   *sync.Cond
	wedged bool
}

func startWedgeProxy(t *testing.T, backend string) *wedgeProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &wedgeProxy{addr: ln.Addr().String(), ln: ln}
	p.cond = sync.NewCond(&p.mu)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			b, err := net.Dial("tcp", backend)
			if err != nil {
				c.Close()
				continue
			}
			go p.pipe(c, b)
			go p.pipe(b, c)
		}
	}()
	t.Cleanup(func() {
		p.setWedged(false) // unblock pipes so they can observe the close
		ln.Close()
	})
	return p
}

func (p *wedgeProxy) setWedged(on bool) {
	p.mu.Lock()
	p.wedged = on
	p.mu.Unlock()
	p.cond.Broadcast()
}

func (p *wedgeProxy) pipe(dst, src net.Conn) {
	defer dst.Close()
	defer src.Close()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			p.mu.Lock()
			for p.wedged {
				p.cond.Wait()
			}
			p.mu.Unlock()
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// TestRouterHungShardBreaker: a shard that hangs — answers nothing, drops
// nothing — must not drag cross-shard commits into an indefinite stall.
// The router's call timeout turns silence into a presumed-abort failure in
// under twice the deadline, consecutive failures open the shard's breaker
// (after which requests shed at admission without waiting out the deadline,
// carrying the never-executed backpressure sentinel), the healthy shard
// keeps serving throughout, and when the shard returns the prober
// half-opens the breaker and cross-shard service resumes on its own.
func TestRouterHungShardBreaker(t *testing.T) {
	tc := launchCluster(t, 2, 40)
	px := startWedgeProxy(t, tc.addrs[1])
	m, err := client.DialMulti("tcp", []string{tc.addrs[0], px.addr},
		client.Config{Window: 8, KeepAlive: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const callTimeout = 250 * time.Millisecond
	r, err := NewRouter(tc.cluster, m, simdisk.New("router-log", simdisk.Config{}), RouterConfig{
		CallTimeout:      callTimeout,
		BreakerThreshold: 2,
		BreakerProbe:     20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if _, err := r.Submit("SendPayment", payArgs(1, 30, 10)).Wait(); err != nil {
		t.Fatalf("healthy cross-shard payment: %v", err)
	}

	px.setWedged(true)

	start := time.Now()
	if _, err := r.Submit("SendPayment", payArgs(2, 31, 10)).Wait(); err == nil {
		t.Fatal("cross-shard commit succeeded against a hung shard")
	}
	if el := time.Since(start); el >= 2*callTimeout {
		t.Fatalf("hung-shard cross-shard failure took %v, want < %v", el, 2*callTimeout)
	}

	// Keep the timeouts coming until the breaker opens.
	deadline := time.Now().Add(10 * time.Second)
	for r.Breakers()[1].State != "open" {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened: %+v", r.Breakers())
		}
		r.Submit("Balance", pacman.Args{pacman.A(pacman.I(30))}).Wait()
	}

	// Open breaker: shed at admission, well under the deadline.
	start = time.Now()
	_, err = r.Submit("Balance", pacman.Args{pacman.A(pacman.I(30))}).Wait()
	if err == nil {
		t.Fatal("open breaker admitted a request to a hung shard")
	}
	if !errors.Is(err, wire.ErrBackpressure) {
		t.Fatalf("open-breaker error = %v, want the ErrBackpressure sentinel", err)
	}
	if el := time.Since(start); el >= callTimeout {
		t.Fatalf("open-breaker shed took %v, want < %v", el, callTimeout)
	}

	// The healthy shard serves on, unaffected.
	if _, err := r.Submit("DepositChecking",
		pacman.Args{pacman.A(pacman.I(3)), pacman.A(pacman.F(5))}).Wait(); err != nil {
		t.Fatalf("healthy shard failed during the outage: %v", err)
	}

	// The shard returns: probe -> half-open -> trial -> closed, and
	// cross-shard service resumes without any operator action.
	px.setWedged(false)
	deadline = time.Now().Add(10 * time.Second)
	for {
		if _, err := r.Submit("SendPayment", payArgs(4, 34, 10)).Wait(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cross-shard service never recovered: breakers %+v", r.Breakers())
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !r.Quiesce(5 * time.Second) {
		t.Fatal("router did not quiesce after recovery")
	}
}

// TestRouterQueueFullIsBackpressure: a Submit beyond QueueCap resolves at
// once with an error carrying the never-executed backpressure sentinel, so
// callers can classify it as safe to resubmit.
func TestRouterQueueFullIsBackpressure(t *testing.T) {
	tc := launchCluster(t, 2, 40)
	px := startWedgeProxy(t, tc.addrs[0])
	m, err := client.DialMulti("tcp", []string{px.addr, tc.addrs[1]}, client.Config{Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(tc.cluster, m, simdisk.New("router-log", simdisk.Config{}), RouterConfig{QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// The wedged shard holds the one queue slot until it is released.
	px.setWedged(true)
	held := r.Submit("Balance", pacman.Args{pacman.A(pacman.I(3))})
	_, err = r.Submit("Balance", pacman.Args{pacman.A(pacman.I(30))}).Wait()
	if !errors.Is(err, wire.ErrBackpressure) {
		t.Fatalf("queue-full error = %v, want the ErrBackpressure sentinel", err)
	}
	px.setWedged(false)
	if _, err := held.Wait(); err != nil {
		t.Fatalf("held request after unwedge: %v", err)
	}
}
