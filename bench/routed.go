package main

import (
	"errors"
	"fmt"
	"sort"

	"pacman"
	"pacman/client"
	"pacman/internal/shard"
	"pacman/internal/simdisk"
	"pacman/internal/wire"
)

// routedWindow is the in-flight cap of one client connection through the
// router, frozen from the sweep in README.md (throughput is not monotonic
// in it).
const routedWindow = 1024

// cluster is a two-shard Smallbank deployment on loopback TCP: one pacman
// instance behind a wire server per shard, a router with its decision log
// behind a third server, all in this process.
type cluster struct {
	desc   *shard.Cluster
	mix    *mix
	dbs    []*pacman.DB
	srvs   []*wire.Server
	addrs  []string
	router *shard.Router
	front  *wire.Server
	coord  *pacman.Device
	conns  []*client.Client
	// deposits is what the acknowledged deposits of every phase run on
	// this cluster have added to the seeded balances.
	deposits float64
}

// startCluster launches the shards, the router and its frontside. window is
// the in-flight grant of one client connection; every queue behind it is
// sized so that a generator blocks on that grant and nowhere else.
func startCluster(window int) (*cluster, error) {
	desc, m := clusterMix()
	// The decision log sits on an unmodeled device, as in the shipped
	// pacman-router: its records are synced one by one under a mutex, so a
	// 300 us fsync caps the cluster at ~1.6k cross-shard commits a second
	// and the window fills with them (README.md, findings).
	c := &cluster{desc: desc, mix: m, coord: simdisk.New("router-2pc", simdisk.Config{})}
	depth := generators * window
	for i := 0; i < clusterShards; i++ {
		db, err := pacman.Launch(desc.ShardBlueprint(i), desc.ShardOptions(options(pacman.CommandLogging)))
		if err != nil {
			c.stop()
			return nil, err
		}
		c.dbs = append(c.dbs, db)
		srv := wire.NewServer(wire.ServerConfig{Workers: nproc, Queue: depth, Window: depth})
		if err := srv.Attach(db); err != nil {
			c.stop()
			return nil, err
		}
		c.srvs = append(c.srvs, srv)
		bound, err := srv.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.stop()
			return nil, err
		}
		c.addrs = append(c.addrs, bound.String())
	}
	multi, err := client.DialMulti("tcp", c.addrs, client.Config{Window: depth})
	if err != nil {
		c.stop()
		return nil, err
	}
	// CallTimeout bounds every backside hop, so a wedged shard costs failed
	// operations and not the run.
	if c.router, err = shard.NewRouter(desc, multi, c.coord, shard.RouterConfig{QueueCap: depth, CallTimeout: waitLimit}); err != nil {
		multi.Close()
		c.stop()
		return nil, err
	}
	c.front = wire.NewServer(wire.ServerConfig{Window: window})
	c.front.AttachBackend(c.router)
	bound, err := c.front.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.stop()
		return nil, err
	}
	if c.conns, err = dialAll(bound.String(), window); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// dialAll opens one connection per generator.
func dialAll(addr string, window int) ([]*client.Client, error) {
	var conns []*client.Client
	for i := 0; i < generators; i++ {
		cl, err := client.Dial("tcp", addr, client.Config{Window: window})
		if err != nil {
			closeAll(conns)
			return nil, err
		}
		conns = append(conns, cl)
	}
	return conns, nil
}

func closeAll(conns []*client.Client) {
	for _, cl := range conns {
		cl.Close()
	}
}

// overWire returns per-generator submitters, one connection each.
func overWire(conns []*client.Client) []func(o *op) future {
	subs := make([]func(o *op) future, len(conns))
	for i, cl := range conns {
		subs[i] = func(o *op) future { return cl.Submit(o.name, o.args) }
	}
	return subs
}

// stopServing closes every connection and server, front to back, leaving
// the shard instances running. Every future has been reaped by the time it
// is called, so nothing is in flight on any hop.
func (c *cluster) stopServing() {
	closeAll(c.conns)
	if c.front != nil {
		c.front.Close() // closes the router, which closes its backside links
	}
	for _, s := range c.srvs {
		s.Close()
	}
}

func (c *cluster) stop() {
	c.stopServing()
	for _, db := range c.dbs {
		db.Close()
	}
}

func (c *cluster) devices() []*pacman.Device {
	devs := []*pacman.Device{c.coord}
	for _, db := range c.dbs {
		devs = append(devs, db.Devices()...)
	}
	return devs
}

// checkBalances requires that money is conserved: once the router has
// delivered every decision, the checking balances summed over the shards
// are the seeded total plus the acknowledged deposits. Payments move money
// between shards and net to zero.
func (c *cluster) checkBalances(rep *report) error {
	if !c.router.Quiesce(waitLimit) {
		return errors.New("router did not quiesce")
	}
	var total float64
	for _, db := range c.dbs {
		v, err := db.SnapshotView(0)
		if err != nil {
			return err
		}
		v.Scan(db.Table("CHECKING"), 0, ^uint64(0), func(_ uint64, row pacman.Tuple) bool {
			total += row[1].Float()
			return true
		})
		v.Close()
	}
	want := float64(clusterCustomers)*1000 + c.deposits
	rep.check(total == want, "cluster balances sum to %.0f; seeded %d x 1000 plus %.0f of acknowledged deposits is %.0f",
		total, clusterCustomers, c.deposits, want)
	return nil
}

// shardMix is shard i's own catalog with a deposit to one of its customers
// as the first transaction after a restart.
func (c *cluster) shardMix(i int) *mix {
	first := int64(i*clusterCustomers/clusterShards + 1)
	return &mix{name: fmt.Sprintf("shard%d", i), bp: c.desc.ShardBlueprint(i), lanes: 1,
		probe: op{name: "DepositChecking", args: pacman.Args{pacman.A(pacman.I(first)), pacman.A(pacman.F(1))}}}
}

// verifyRouted is the correctness gate of the routed workload: a fixed
// number of requests through the router, the conservation check, and then
// a crash and restart of shard 0, whose log mixes command records with the
// value records of the 2PC pieces, against its digest.
func verifyRouted(rep *report, rc *runCfg, txns int, seed int64, cfg pacman.RecoverConfig) (servable []float64, own *ownImage, err error) {
	c, err := startCluster(routedWindow)
	if err != nil {
		return nil, nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			c.stop()
		}
	}()
	r := runPhase(&phase{name: "verify", mix: c.mix, submitters: overWire(c.conns), window: routedWindow, count: int64(txns), seed: seed})
	rep.ops(r.submitted, r.failed)
	for _, e := range r.errs {
		rep.info("verify phase error: %s", e)
	}
	c.deposits += r.deposits
	if err := c.checkBalances(rep); err != nil {
		return nil, nil, err
	}
	sm := c.shardMix(0)
	want, rows, err := digestNow(c.dbs[0], sm.bp)
	if err != nil {
		return nil, nil, err
	}
	stopped = true
	c.stopServing()
	c.dbs[0].Crash()
	for _, db := range c.dbs[1:] {
		db.Close()
	}
	cfg.Serve = c.desc.ShardOptions(pacman.Options{})
	own = &ownImage{kind: pacman.CommandLogging, mix: sm, devs: c.dbs[0].Devices(), cfg: cfg}
	for rc.moreRestarts(servable) {
		rs, _, err := restartClone(rep, own.devs, sm, cfg)
		if err != nil {
			return nil, nil, err
		}
		rs.db.Close()
		rep.check(rs.digest == want && rs.rows == rows,
			"verify: shard 0 digest after restart %016x over %d rows, before the crash %016x over %d rows", rs.digest, rs.rows, want, rows)
		servable = append(servable, rs.servable.Seconds())
		own.last = rs
	}
	return servable, own, nil
}

// directLoad is what a traced run measures on shard 0 of each round's
// cluster with the router taken away.
type directLoad struct {
	tps, p50 []float64
}

// serve sends shard 0's share of the deposits straight to its wire server,
// at peak and then at the share of the paced rate that reaches one shard.
func (d *directLoad) serve(rep *report, c *cluster, ld load) error {
	conns, err := dialAll(c.addrs[0], ld.window)
	if err != nil {
		return err
	}
	defer closeAll(conns)
	ph := phase{name: "direct peak", mix: singleShard(c.mix, 0), submitters: overWire(conns), window: ld.window,
		warm: ld.seg / 5, seg: ld.seg, seed: ld.seed + 9}
	pk := runPhase(&ph)
	ph.name, ph.rate, ph.seed = "direct paced", ld.rate/clusterShards, ld.seed+10
	pc := runPhase(&ph)
	for _, r := range []*phaseResult{pk, pc} {
		rep.ops(r.submitted, r.failed)
		c.deposits += r.deposits
	}
	sort.Float64s(pc.lat)
	d.tps = append(d.tps, float64(pk.windowAcks)/ld.seg.Seconds())
	d.p50 = append(d.p50, percentile(pc.lat, 50))
	return nil
}

// clusterRound starts a fresh cluster for one round of serving. direct,
// when not nil, also drives shard 0 of it without the router once the
// round's two segments are over.
func clusterRound(rep *report, ld load, direct *directLoad) func(int) (*serving, error) {
	return func(int) (*serving, error) {
		c, err := startCluster(ld.window)
		if err != nil {
			return nil, err
		}
		return &serving{mix: c.mix, submitters: overWire(c.conns), devices: c.devices(), dbs: c.dbs, conns: c.conns,
			done: func(peak, paced *phaseResult) error {
				defer c.stop()
				c.deposits += peak.deposits + paced.deposits
				if direct != nil {
					if err := direct.serve(rep, c, ld); err != nil {
						return err
					}
				}
				return c.checkBalances(rep)
			}}, nil
	}
}

// runRouted measures the whole request path: client → router → shard, with
// one cross-shard two-phase commit in ten.
func runRouted(rep *report, w *scenario, rc *runCfg, tr *tracer) error {
	cfg := restartConfig(w.kind, tr)
	setups, servable, own, err := verifyRounds(rc, func(round int) ([]float64, *ownImage, error) {
		return verifyRouted(rep, rc, rc.scaled(w.verifyTxns), rc.seed+int64(round), cfg)
	})
	if err != nil {
		return err
	}
	ld := rc.load(routedWindow, w.rate, rc.seed, 1, rounds)
	var direct *directLoad
	if tr != nil {
		direct = &directLoad{}
	}
	sv, err := serveRounds(rep, ld, tr, "client", clusterRound(rep, ld, direct))
	if err != nil {
		return err
	}
	reportServe(rep, ld, sv)
	reportPerTxn(rep, sv)
	rep.info("cross-shard share of acknowledged requests: peak %.3f, paced %.3f",
		float64(sv.peak.crossAck)/float64(sv.peak.acked), float64(sv.paced.crossAck)/float64(sv.paced.acked))
	rep.set("restart_s", median(servable), fmt.Sprintf("crash→first durable ack of shard 0 after %d routed requests; median of %s", rc.scaled(w.verifyTxns), fmtList(servable)))
	rep.set("setup_s", median(setups), fmt.Sprintf("cluster start + verify pass; median of %s", fmtList(setups)))
	if tr == nil {
		return nil
	}
	ledgerCluster(rep, ld, sv, direct)
	bypassed(rep, "the shards' stamps do not reach a client's future", "frontend.submit_call_ns", "frontend.queue_exec_p50_us",
		"frontend.queue_exec_p99_us", "frontend.shed_frac", "wal.group_wait_p50_ms", "wal.group_wait_p99_ms")
	_, cm := clusterMix()
	if err := ledgerCodec(rep, cm, rc, tr); err != nil {
		return err
	}
	if err := ledgerExec(rep, w.mix(), rc, tr); err != nil {
		return err
	}
	return ledgerRestart(rep, own, tr)
}
