package main

import (
	"math/rand"

	"pacman"
	"pacman/internal/shard"
	"pacman/internal/workload"
)

// op is one generated request. The generator knows what the system does
// not tell a client: whether the request may roll back for a business
// reason, whether it writes a log entry when it commits, and (on the
// cluster) which shard it lands on and how much money it creates.
type op struct {
	name     string
	args     pacman.Args
	mayAbort bool
	logs     logging
	cross    bool
	// lane groups requests whose durable acks arrive in submission order
	// (one shard's group commit releases in epoch order; a 2PC round does
	// not), so the in-flight FIFO of a lane can be reaped from its head.
	lane uint8
	// deposit is what a committed request adds to the summed balances.
	deposit float64
}

// logging says whether a committed request leaves a log entry. A request
// whose writes depend on what it reads (a payment from an empty account, a
// delivery with nothing to deliver) commits with an empty write set and
// logs nothing, so entry counts are checked as a range.
type logging uint8

const (
	logsNever logging = iota
	logsMaybe
	logsAlways
)

// conditionalWriters are the procedures of the stock mixes whose committed
// executions may write nothing.
var conditionalWriters = map[string]bool{"SendPayment": true, "Delivery": true}

// mix is a transaction mix over one catalog. Each launched instance gets
// its own mix value: TPC-C's generator tracks per-district order counters
// that must follow one database's history.
type mix struct {
	name  string
	bp    pacman.Blueprint
	lanes int
	next  func(rng *rand.Rand) op
	// probe is a single logging transaction used as the first durable ack
	// after a restart.
	probe op
}

func blueprintOf(w workload.Workload) pacman.Blueprint {
	spec := workload.Spec(w)
	return pacman.Blueprint{Tables: spec.Tables, Procedures: spec.Procs, Seed: spec.Seed}
}

func fromWorkload(name string, mk func() workload.Workload, probe op) *mix {
	w := mk()
	return &mix{
		name:  name,
		bp:    blueprintOf(w),
		lanes: 1,
		probe: probe,
		next: func(rng *rand.Rand) op {
			t := w.Generate(rng)
			o := op{name: t.Proc.Name(), args: t.Args, mayAbort: t.MayAbort, logs: logsAlways}
			switch {
			case t.ReadOnly:
				o.logs = logsNever
			case conditionalWriters[o.name]:
				o.logs = logsMaybe
			}
			return o
		},
	}
}

// smallbankMix is Smallbank at the paper's laptop scale: 10k customers, a
// quarter of the traffic on the 100 hottest.
func smallbankMix() *mix {
	return fromWorkload("smallbank", func() workload.Workload {
		return workload.NewSmallbank(workload.DefaultSmallbankConfig())
	}, op{name: "DepositChecking", args: pacman.Args{pacman.A(pacman.I(1)), pacman.A(pacman.F(1))}, logs: logsAlways})
}

// TPC-C on two warehouses comes in three populations, each chosen so that
// the history it generates recovers to the state it left (README.md,
// findings, has the two defects they step around):
//
//   - tpccLogging disables the inserts, as the paper's logging runs do to
//     bound database growth.
//   - tpccHistory keeps the inserts and seeds 100 undelivered orders per
//     district instead of 10. Deliveries trail NewOrders by that backlog,
//     which then random-walks with the mix; from 10 it reaches zero in some
//     district within a few thousand transactions, and a Delivery then runs
//     concurrently with the NewOrder whose order it targets. OCC does not
//     validate a read of an absent key, so the Delivery misses the
//     NEW_ORDER row being inserted, commits after it, and command-log replay
//     in timestamp order delivers an order the original execution left
//     undelivered. From 100 the backlog stays five standard deviations
//     above zero for the length of the histories used here.
//   - tpccCheckpointed keeps the inserts but seeds delivered orders only.
//     Restart seeds a fresh instance before it restores a checkpoint, and a
//     seeded row deleted before that checkpoint was taken comes back, so a
//     history recovered through a checkpoint must not delete seeded rows.
//     It is replayed physically, which the first defect does not affect.
func tpccLogging() *mix { return tpccMix("tpcc", false, 0) }
func tpccHistory() *mix { return tpccMix("tpcc+inserts, deep backlog", true, 300) }
func tpccCheckpointed() *mix {
	return tpccMix("tpcc+inserts, delivered seed", true, 2) // below three, no order is seeded undelivered
}

func tpccMix(name string, inserts bool, initOrders int) *mix {
	return fromWorkload(name, func() workload.Workload {
		cfg := workload.DefaultTPCCConfig()
		cfg.DisableInserts = !inserts
		if initOrders > 0 {
			cfg.InitOrdersPerDistrict = initOrders
		}
		return workload.NewTPCC(cfg)
	}, op{name: "Payment", args: pacman.Args{
		pacman.A(pacman.I(1)), pacman.A(pacman.I(1)), pacman.A(pacman.I(1)), pacman.A(pacman.I(1)),
		pacman.A(pacman.I(1)), pacman.A(pacman.F(1)), pacman.A(pacman.I(20260610)),
	}, logs: logsAlways})
}

// Cluster sizing for the routed workload.
const (
	clusterShards    = 2
	clusterCustomers = 8192
	crossPct         = 10
	laneCross        = clusterShards // lanes 0..shards-1 are the single-shard ones
)

// clusterMix is the routed traffic: 90 % single-shard deposits and 10 %
// payments between the two halves of the customer range, which the router
// must run as two-phase commits. Amounts are whole numbers so that the
// conservation check is exact in floating point.
func clusterMix() (*shard.Cluster, *mix) {
	cl := shard.NewSmallbankCluster(shard.Config{Shards: clusterShards, Customers: clusterCustomers})
	half := int64(clusterCustomers / clusterShards)
	m := &mix{name: "smallbank-cluster", lanes: clusterShards + 1}
	m.next = func(rng *rand.Rand) op {
		if rng.Intn(100) < crossPct {
			from := rng.Intn(clusterShards)
			to := (from + 1 + rng.Intn(clusterShards-1)) % clusterShards
			c1 := int64(from)*half + 1 + rng.Int63n(half)
			c2 := int64(to)*half + 1 + rng.Int63n(half)
			return op{name: "SendPayment", mayAbort: true, logs: logsAlways, cross: true, lane: laneCross,
				args: pacman.Args{pacman.A(pacman.I(c1)), pacman.A(pacman.I(c2)), pacman.A(pacman.F(float64(1 + rng.Intn(49))))}}
		}
		c1 := 1 + rng.Int63n(clusterCustomers)
		amt := float64(1 + rng.Intn(99))
		return op{name: "DepositChecking", logs: logsAlways, deposit: amt,
			lane: uint8(workload.AccountRangeOf(c1, clusterShards, clusterCustomers)),
			args: pacman.Args{pacman.A(pacman.I(c1)), pacman.A(pacman.F(amt))}}
	}
	return cl, m
}

// shardDeposits is shard 0 of the cluster as a stand-alone instance taking
// its share of the deposits: the routed workload's traffic with the router,
// the wire and the other shard taken away.
func shardDeposits() *mix {
	cl, m := clusterMix()
	out := singleShard(m, 0)
	out.name = "shard0-deposits"
	out.bp = cl.ShardBlueprint(0)
	return out
}

// singleShard narrows the cluster mix to the deposits of one shard, for the
// probes that talk to that shard without the router.
func singleShard(m *mix, shardIdx int) *mix {
	half := int64(clusterCustomers / clusterShards)
	out := *m
	out.lanes = 1
	out.next = func(rng *rand.Rand) op {
		c1 := int64(shardIdx)*half + 1 + rng.Int63n(half)
		amt := float64(1 + rng.Intn(99))
		return op{name: "DepositChecking", logs: logsAlways, deposit: amt,
			args: pacman.Args{pacman.A(pacman.I(c1)), pacman.A(pacman.F(amt))}}
	}
	return &out
}
