package shard

import (
	"fmt"

	"pacman"
	"pacman/internal/proc"
	"pacman/internal/tuple"
	"pacman/internal/workload"
)

// StatusTable is the per-shard 2PC status table. One row per global
// transaction id this shard participated in; the status column gates every
// piece, which is what makes prepares refuse re-execution and decides
// idempotent under re-delivery. Exported so cluster-level oracles (the
// torture subsystem) can audit per-gtid outcome agreement across shards.
const StatusTable = "PACMAN_2PC"

// 2PC statuses. A missing row is "unknown" (no piece has run).
const (
	StatusPrepared  = 1
	StatusCommitted = 2
	StatusAborted   = 3
)

// Invocation is one piece call the router sends to a participant.
type Invocation struct {
	Proc string
	Args proc.Args
}

// Participant is one shard's role in a cross-shard transaction: where its
// prepare executes, and the decide piece for each outcome.
type Participant struct {
	Shard   int
	Prepare Invocation
	Commit  Invocation
	Abort   Invocation
}

// gtxn is one cross-shard transaction: the global id and its participants.
// It is exactly what the decision log's begin record serializes, so a
// recovered router can re-drive the decide phase from the log alone.
type gtxn struct {
	GTID  uint64
	Parts []Participant
}

// splitFn materializes a cross-shard procedure's participant pieces from
// its arguments and routed shard set.
type splitFn func(c *Cluster, gtid uint64, shards []int, args proc.Args) (*gtxn, error)

// Config sizes a Smallbank cluster.
type Config struct {
	Shards    int
	Customers int
	// HotspotPct follows workload.SmallbankConfig.
	HotspotPct int
	// Extra, when set, is appended to the base workload before routing is
	// extracted: its tables and procedures join every shard's catalog (ids
	// stay cluster-consistent because the merge happens identically on the
	// router and each shard), its procedures become routable public entry
	// points, and its seed rows land on every shard whose partition covers
	// them (tables the partitioner does not know are unpartitioned: seeded
	// everywhere, routed to shard 0). The torture subsystem rides its
	// ledger oracle into a cluster this way.
	Extra *workload.BlueprintSpec
}

// Cluster is the static description of a sharded deployment: per-shard
// blueprints, the routing extraction, and the cross-shard split catalog.
// It lives on the router AND is what each shard daemon launches from, so
// every party agrees on catalogs and procedure ids.
type Cluster struct {
	cfg     Config
	part    SmallbankPartitioner
	routing *Routing
	spec    workload.BlueprintSpec
	pieces  []*proc.Procedure
	public  []string
	splits  map[string]splitFn
}

// NewSmallbankCluster builds the cluster description for a Smallbank
// deployment over cfg.Shards shards.
func NewSmallbankCluster(cfg Config) *Cluster {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Customers <= 0 {
		cfg.Customers = workload.DefaultSmallbankConfig().Customers
	}
	w := workload.NewSmallbank(workload.SmallbankConfig{Customers: cfg.Customers, HotspotPct: cfg.HotspotPct})
	spec := workload.Spec(w)
	if ex := cfg.Extra; ex != nil {
		base := spec
		spec = workload.BlueprintSpec{
			Tables: append(append([]*tuple.Schema(nil), base.Tables...), ex.Tables...),
			Procs:  append(append([]*proc.Procedure(nil), base.Procs...), ex.Procs...),
			Seed: func(seed func(table string, key uint64, vals tuple.Tuple)) {
				if base.Seed != nil {
					base.Seed(seed)
				}
				if ex.Seed != nil {
					ex.Seed(seed)
				}
			},
		}
	}
	c := &Cluster{
		cfg:    cfg,
		part:   SmallbankPartitioner{NumShards: cfg.Shards, Customers: cfg.Customers},
		spec:   spec,
		pieces: pay2PCPieces(),
		splits: map[string]splitFn{"SendPayment": splitSendPayment},
	}
	c.routing = NewRouting(spec.Procs, c.part)
	for _, p := range spec.Procs {
		c.public = append(c.public, p.Name)
	}
	return c
}

// Config returns the cluster sizing.
func (c *Cluster) Config() Config { return c.cfg }

// Partitioner returns the cluster's partitioner.
func (c *Cluster) Partitioner() Partitioner { return c.part }

// Public returns the procedure names clients may submit, in the base
// workload's registration order (the router frontside's proc table).
func (c *Cluster) Public() []string { return append([]string(nil), c.public...) }

// ValueLogProcs returns the 2PC piece names — the procedures every shard
// must force onto the value-logging path (pacman.Options.ValueLogProcs):
// their effects depend on cross-shard coordination, so replay must reload
// them as values, never re-execute them.
func (c *Cluster) ValueLogProcs() []string {
	names := make([]string, len(c.pieces))
	for i, p := range c.pieces {
		names[i] = p.Name
	}
	return names
}

// ShardOptions returns base with the cluster's adaptive-logging policy
// applied — the options a shard instance should Launch with.
func (c *Cluster) ShardOptions(base pacman.Options) pacman.Options {
	base.ValueLogProcs = c.ValueLogProcs()
	return base
}

// ShardBlueprint returns shard i's blueprint. The catalog (tables and
// procedures, INCLUDING the 2PC status table and pieces) is identical on
// every shard so table and procedure ids agree across the cluster; only
// the seed differs — each shard populates its own partition of the
// customer range.
func (c *Cluster) ShardBlueprint(i int) pacman.Blueprint {
	tables := append(append([]*tuple.Schema(nil), c.spec.Tables...),
		tuple.MustSchema(StatusTable,
			tuple.Col("gtid", tuple.KindInt),
			tuple.Col("status", tuple.KindInt),
		))
	procs := append(append([]*proc.Procedure(nil), c.spec.Procs...), c.pieces...)
	baseSeed := c.spec.Seed
	part := c.part
	return pacman.Blueprint{
		Tables:     tables,
		Procedures: procs,
		Seed: func(seed pacman.Seeder) {
			baseSeed(func(table string, key uint64, vals tuple.Tuple) {
				sh, partitioned := part.ShardOf(table, int64(key))
				if !partitioned || sh == i {
					seed(table, key, vals)
				}
			})
		},
	}
}

// Split materializes the cross-shard pieces for one invocation, or fails
// for procedures with no registered split (cross-shard execution is
// opt-in per procedure: a split must derive every piece argument from the
// client's parameters, since Results carry no output values between
// shards — Amalgamate, whose transfer amount is a read result, cannot).
func (c *Cluster) Split(name string, gtid uint64, shards []int, args proc.Args) (*gtxn, error) {
	fn, ok := c.splits[name]
	if !ok {
		return nil, fmt.Errorf("shard: procedure %q spans shards but has no cross-shard split", name)
	}
	return fn(c, gtid, shards, args)
}

// splitSendPayment splits SendPayment(c1, c2, amt) into a debit piece on
// c1's shard and a credit piece on c2's shard.
func splitSendPayment(c *Cluster, gtid uint64, shards []int, args proc.Args) (*gtxn, error) {
	if len(args) != 3 || len(args[0]) == 0 || len(args[1]) == 0 || len(args[2]) == 0 {
		return nil, fmt.Errorf("shard: SendPayment: malformed arguments")
	}
	c1, c2, amt := args[0][0], args[1][0], args[2][0]
	g := proc.A(tuple.I(int64(gtid)))
	s1, _ := c.part.ShardOf("CHECKING", c1.Int())
	s2, _ := c.part.ShardOf("CHECKING", c2.Int())
	if s1 == s2 {
		return nil, fmt.Errorf("shard: SendPayment: both customers on shard %d — not cross-shard", s1)
	}
	return &gtxn{GTID: gtid, Parts: []Participant{
		{
			Shard:   s1,
			Prepare: Invocation{Proc: "Pay2PCDebit", Args: proc.Args{g, proc.A(c1), proc.A(amt)}},
			Commit:  Invocation{Proc: "Pay2PCCommit", Args: proc.Args{g}},
			Abort:   Invocation{Proc: "Pay2PCDebitAbort", Args: proc.Args{g, proc.A(c1), proc.A(amt)}},
		},
		{
			Shard:   s2,
			Prepare: Invocation{Proc: "Pay2PCCredit", Args: proc.Args{g, proc.A(c2), proc.A(amt)}},
			Commit:  Invocation{Proc: "Pay2PCCommit", Args: proc.Args{g}},
			Abort:   Invocation{Proc: "Pay2PCCreditAbort", Args: proc.Args{g, proc.A(c2), proc.A(amt)}},
		},
	}}, nil
}

// pay2PCPieces builds the status-gated piece procedures for the cross-shard
// SendPayment. Conventions every piece follows:
//
//   - The first statement reads this gtid's status row; a missing row reads
//     NULL, which compares below every integer, so Ge(st, 1) is exactly
//     "some piece already ran".
//   - Prepares ABORT (rolling back cleanly) when the status row exists —
//     a prepare is sent at most once, so an existing row means an abort
//     decide already landed first and the vote must be no.
//   - Prepares apply their effects immediately (locks would be the
//     alternative; applying at prepare keeps the participant's commit path
//     identical to a local transaction's). The guard vote travels as the
//     prepare's outcome: a clean Abort is a NO vote, a durable commit is a
//     YES vote.
//   - Commit decides flip prepared→committed and nothing else. Abort
//     decides compensate the prepare's effect if (and only if) it ran,
//     then record aborted — writing the aborted marker even when the
//     prepare never ran, which is what makes abort-then-prepare races
//     safe.
func pay2PCPieces() []*proc.Procedure {
	g, c1, c2, amt := proc.Pm("gtid"), proc.Pm("c1"), proc.Pm("c2"), proc.Pm("amt")
	st := proc.V("st")
	markStatus := func(status int64) proc.Stmt {
		return proc.Write(StatusTable, g,
			proc.Set("gtid", g), proc.Set("status", proc.CI(status)))
	}
	readStatus := proc.Read("st", StatusTable, g, "status")
	return []*proc.Procedure{
		{
			Name:   "Pay2PCDebit",
			Params: []proc.ParamDef{proc.P("gtid"), proc.P("c1"), proc.P("amt")},
			Body: []proc.Stmt{
				readStatus,
				proc.If(proc.Ge(st, proc.CI(1)), proc.Abort()),
				proc.Read("src", "CHECKING", c1, "bal"),
				proc.If(proc.Lt(proc.V("src"), amt), proc.Abort()), // unfunded (or missing): vote no
				proc.Write("CHECKING", c1, proc.Set("bal", proc.Sub(proc.V("src"), amt))),
				markStatus(StatusPrepared),
			},
		},
		{
			Name:   "Pay2PCCredit",
			Params: []proc.ParamDef{proc.P("gtid"), proc.P("c2"), proc.P("amt")},
			Body: []proc.Stmt{
				readStatus,
				proc.If(proc.Ge(st, proc.CI(1)), proc.Abort()),
				proc.Read("dst", "CHECKING", c2, "bal"),
				proc.Write("CHECKING", c2, proc.Set("bal", proc.Add(proc.V("dst"), amt))),
				markStatus(StatusPrepared),
			},
		},
		{
			Name:   "Pay2PCCommit",
			Params: []proc.ParamDef{proc.P("gtid")},
			Body: []proc.Stmt{
				readStatus,
				proc.If(proc.Eq(st, proc.CI(StatusPrepared)), markStatus(StatusCommitted)),
			},
		},
		{
			Name:   "Pay2PCDebitAbort",
			Params: []proc.ParamDef{proc.P("gtid"), proc.P("c1"), proc.P("amt")},
			Body: []proc.Stmt{
				readStatus,
				proc.IfElse(proc.Eq(st, proc.CI(StatusPrepared)),
					[]proc.Stmt{
						proc.Read("ck", "CHECKING", c1, "bal"),
						proc.Write("CHECKING", c1, proc.Set("bal", proc.Add(proc.V("ck"), amt))),
						markStatus(StatusAborted),
					},
					[]proc.Stmt{
						// Not prepared here: just record the abort (unless a
						// commit somehow landed, which the protocol forbids).
						proc.If(proc.Not(proc.Ge(st, proc.CI(StatusCommitted))), markStatus(StatusAborted)),
					},
				),
			},
		},
		{
			Name:   "Pay2PCCreditAbort",
			Params: []proc.ParamDef{proc.P("gtid"), proc.P("c2"), proc.P("amt")},
			Body: []proc.Stmt{
				readStatus,
				proc.IfElse(proc.Eq(st, proc.CI(StatusPrepared)),
					[]proc.Stmt{
						proc.Read("ck", "CHECKING", c2, "bal"),
						proc.Write("CHECKING", c2, proc.Set("bal", proc.Sub(proc.V("ck"), amt))),
						markStatus(StatusAborted),
					},
					[]proc.Stmt{
						proc.If(proc.Not(proc.Ge(st, proc.CI(StatusCommitted))), markStatus(StatusAborted)),
					},
				),
			},
		},
	}
}
