package torture

import (
	"fmt"
	"time"

	"pacman"
	"pacman/client"
	"pacman/internal/shard"
	"pacman/internal/simdisk"
	"pacman/internal/wire"
)

// clusterShards is the cluster width.
const clusterShards = 2

// clusterTarget is RunCluster's shape: clusterShards shard instances behind
// wire servers, a router (with its own decision-log device) in front, and
// the cluster mix driven through the router while a seeded victim dies
// mid-traffic every cycle — even cycles kill one shard (severed links,
// crashed instance, Restart over its mixed command/value log stream), odd
// cycles kill the router (unsynced decision-log tail lost; the next
// incarnation settles every in-doubt transaction from the log before
// serving). After each cycle the oracle verifies cross-shard atomicity:
// balance conservation summed over every shard, ledger stamp atomicity, and
// per-gtid 2PC outcome agreement — then a long-lived prober proves the
// recovered path serves a durable commit.
//
// Its settle is opaque: an error that crosses two wire hops (shard → router
// backside, router → frontside client) can lose its identity — the
// backside's connection loss and the router's own shutdown reach the client
// as opaque internal codes — so anything not provably never-executed is
// held to the maybe contract (all-or-nothing, outcome frozen by the next
// verification) instead of being reported as a violation. The conservation
// and ledger oracles lose no power: maybe slack for delta-zero cross-shard
// payments is zero, so a torn one is still always caught.
type clusterTarget struct {
	cluster *shard.Cluster
	dbs     []*pacman.DB
	srvs    []*wire.Server
	addrs   []string
	rdev    *simdisk.Device
	router  *shard.Router
	rsrv    *wire.Server
	front   string
	prober  *client.Client
}

// openCluster builds the cluster — Smallbank over clusterShards shards, with
// the torture ledger and stamp procedure riding along via the Extra hook so
// they exist identically in every shard's catalog (the ledger is
// unpartitioned: seeded everywhere, stamps routed to shard 0) — and starts
// every shard, the router and the prober.
func openCluster(e *engine) (target, error) {
	if e.cfg.Workload != WorkloadSmallbank {
		return nil, fmt.Errorf("torture: cluster runs serve smallbank, not %q", e.cfg.Workload)
	}
	led := e.ledger(WorkloadSmallbank, sbCustomers*3000, e.cfg.TxnsPerCycle)
	c := &clusterTarget{
		cluster: shard.NewSmallbankCluster(shard.Config{
			Shards: clusterShards, Customers: sbCustomers, HotspotPct: 25, Extra: &led,
		}),
		dbs:   make([]*pacman.DB, clusterShards),
		srvs:  make([]*wire.Server, clusterShards),
		addrs: make([]string, clusterShards),
		rdev:  simdisk.New("router-2pc", simdisk.Config{}),
	}
	e.part, e.opaque = c.cluster.Partitioner(), true
	for i := range c.dbs {
		db, err := pacman.Launch(c.cluster.ShardBlueprint(i), c.shardOptions(e))
		if err != nil {
			return nil, err
		}
		c.dbs[i] = db
		c.srvs[i] = wire.NewServer(wire.ServerConfig{Workers: e.cfg.Workers, Queue: 4 * e.cfg.Workers, Window: wireInFlight})
		if c.addrs[i], err = listen(c.srvs[i], db, "tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
	}
	e.onClose(func() {
		for _, s := range c.srvs {
			s.Close()
		}
		for _, d := range c.dbs {
			d.Close()
		}
	})

	var err error
	if c.router, err = c.startRouter(e); err != nil {
		return nil, err
	}
	// Closing the router's server closes its backend, the current router.
	c.rsrv = wire.NewServer(wire.ServerConfig{Window: wireInFlight})
	c.rsrv.AttachBackend(c.router)
	bound, err := c.rsrv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.front = bound.String()
	e.onClose(c.rsrv.Close)
	if c.prober, err = dialProber("tcp", c.front); err != nil {
		return nil, err
	}
	e.onClose(c.prober.Close)
	return c, nil
}

func (c *clusterTarget) shardOptions(e *engine) pacman.Options {
	return c.cluster.ShardOptions(pacman.Options{
		Logging:       e.cfg.Logging,
		Devices:       2,
		EpochInterval: time.Millisecond,
		MaxRetries:    maxRetries,
	})
}

func (c *clusterTarget) startRouter(e *engine) (*shard.Router, error) {
	multi, err := client.DialMulti("tcp", c.addrs, client.Config{
		Window: wireInFlight, KeepAlive: 25 * time.Millisecond,
		BackoffMin: time.Millisecond, BackoffMax: 20 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	return shard.NewRouter(c.cluster, multi, c.rdev, shard.RouterConfig{
		QueueCap: 4 * e.cfg.Clients * wireInFlight, RetryBackoff: time.Millisecond,
	})
}

// serve drives the budget through the router while the seeded victim dies
// mid-traffic. Either way the victim is restarted in place and the rest of
// the budget drains against the recovered cluster — the frontside clients
// redial the router, the router's backside links redial a restarted shard,
// and stuck 2PC deliveries retry until their participant is back.
func (c *clusterTarget) serve(e *engine, cycle int) ([]*journal, error) {
	clients, err := dialLoad(e.cfg.Clients, "tcp", c.front, wireInFlight)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()
	l := e.drive(cycle, wireInFlight, func(i int, name string, args pacman.Args) waiter {
		return clients[i].Submit(name, args)
	}, nil)

	time.Sleep(time.Duration(1+e.rng.Intn(4)) * time.Millisecond)
	if cycle%2 == 0 {
		t := e.rng.Intn(clusterShards)
		e.plans = append(e.plans, fmt.Sprintf("cycle %d: kill shard %d mid-traffic", cycle, t))
		e.st.ShardKills++
		c.srvs[t].Kill()
		c.dbs[t].Crash()
		db, res, err := pacman.Restart(c.dbs[t].Devices(), c.cluster.ShardBlueprint(t), pacman.RecoverConfig{
			Threads: recoveryThreads,
			Serve:   c.shardOptions(e),
		})
		if err != nil {
			return nil, e.violation(cycle, fmt.Sprintf("shard %d Restart failed: %v", t, err))
		}
		c.dbs[t] = db
		e.st.Replayed = res.Entries
		if _, err := listen(c.srvs[t], db, "tcp", c.addrs[t]); err != nil {
			return nil, err
		}
	} else {
		e.plans = append(e.plans, fmt.Sprintf("cycle %d: kill router mid-traffic", cycle))
		e.st.RouterKills++
		c.rsrv.Kill()
		c.router.Close()
		c.rdev.Crash() // the unsynced decision-log tail (end records) is lost
		router, err := c.startRouter(e)
		if err != nil {
			return nil, e.violation(cycle, fmt.Sprintf("router recovery failed: %v", err))
		}
		c.router = router
		c.rsrv.AttachBackend(router)
		if _, err := c.rsrv.Listen("tcp", c.front); err != nil {
			return nil, err
		}
	}
	<-l.done
	return l.js, nil
}

// recover audits the cluster: the victim came back in place mid-traffic,
// so what is left is to wait for the router's decide pieces to land —
// client futures resolve at decision time — before auditing the 2PC status
// tables. Cluster epochs are per-shard clocks, so the structural epoch
// floor the serving proof checks is trivially zero.
func (c *clusterTarget) recover(e *engine, cycle int) (*pacman.RecoveryResult, error) {
	if !c.router.Quiesce(5 * time.Second) {
		return nil, e.violation(cycle, "router failed to quiesce decide deliveries within 5s")
	}
	return &pacman.RecoveryResult{}, e.violation(cycle, e.oracle.verifyCluster(c.dbs)...)
}

func (c *clusterTarget) exec(name string, args pacman.Args) (pacman.TS, error) {
	return c.prober.Exec(name, args)
}
