package torture

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pacman"
	"pacman/internal/proc"
	"pacman/internal/shard"
	"pacman/internal/tuple"
	"pacman/internal/workload"
)

// ledgerTable is the oracle's read-back table, appended to every workload's
// blueprint. TortureStamp writes one value to both rows of a pair in a
// single transaction; the oracle reads the pair back after recovery.
const ledgerTable = "TORTURE_LEDGER"

// Per-client in-flight windows of the load clients.
const (
	frontendInFlight = 32
	wireInFlight     = 16
)

// ledger sizes the stamp ledger so it never runs out — about 1/8 of a
// cycle's stampTxns submissions are stamps, plus one serving proof per
// cycle, with generous slack — builds the oracle over it, and returns the
// ledger's catalog: the table seeded with zero rows, and TortureStamp.
func (e *engine) ledger(wl string, t0 int64, stampTxns int) workload.BlueprintSpec {
	pairs := e.cfg.Cycles*(stampTxns/4+8) + 64
	e.pairs = pairs
	e.oracle = newOracle(wl, t0, pairs)
	a, b, v := proc.Pm("a"), proc.Pm("b"), proc.Pm("v")
	return workload.BlueprintSpec{
		Tables: []*tuple.Schema{tuple.MustSchema(ledgerTable,
			tuple.Col("id", tuple.KindInt), tuple.Col("v", tuple.KindInt))},
		Procs: []*proc.Procedure{{
			Name:   "TortureStamp",
			Params: []proc.ParamDef{proc.P("a"), proc.P("b"), proc.P("v")},
			Body: []proc.Stmt{
				proc.Read("ra", ledgerTable, a, "v"),
				proc.Write(ledgerTable, a, proc.Set("v", v)),
				proc.Read("rb", ledgerTable, b, "v"),
				proc.Write(ledgerTable, b, proc.Set("v", v)),
			},
		}},
		Seed: func(seed func(table string, key uint64, vals tuple.Tuple)) {
			for k := uint64(1); k <= uint64(2*pairs); k++ {
				seed(ledgerTable, k, tuple.Tuple{tuple.I(int64(k)), tuple.I(0)})
			}
		},
	}
}

// blueprint builds a single instance's catalog — the configured workload
// plus the ledger — and the oracle for it.
func (e *engine) blueprint(stampTxns int) (pacman.Blueprint, error) {
	var spec, led workload.BlueprintSpec
	switch e.cfg.Workload {
	case WorkloadSmallbank:
		spec = workload.Spec(workload.NewSmallbank(workload.SmallbankConfig{Customers: sbCustomers, HotspotPct: 25}))
		// 2000 savings + 1000 checking per customer (DefaultSmallbank seed).
		led = e.ledger(WorkloadSmallbank, sbCustomers*3000, stampTxns)
	case WorkloadTPCC:
		tc := workload.DefaultTPCCConfig()
		tc.Warehouses = 1
		tc.DisableInserts = true
		e.wk = workload.NewTPCC(tc)
		spec = workload.Spec(e.wk)
		led = e.ledger(WorkloadTPCC, 0, stampTxns)
	default:
		return pacman.Blueprint{}, fmt.Errorf("torture: unknown workload %q", e.cfg.Workload)
	}
	return pacman.Blueprint{
		Tables:     append(spec.Tables, led.Tables...),
		Procedures: append(spec.Procs, led.Procs...),
		Seed: func(seed pacman.Seeder) {
			spec.Seed(seed)
			led.Seed(seed)
		},
	}, nil
}

// takeStamp allocates a fresh ledger pair, or -1 when exhausted.
func (e *engine) takeStamp() int {
	i := int(e.nextStamp.Add(1) - 1)
	if i >= e.pairs {
		return -1
	}
	return i
}

func (e *engine) stampsUsed() int { return min(int(e.nextStamp.Load()), e.pairs) }

// stampArgs are TortureStamp's arguments writing val to both rows of pair.
func stampArgs(pair int, val int64) pacman.Args {
	return pacman.Args{
		proc.A(tuple.I(int64(pairKeyA(pair)))),
		proc.A(tuple.I(int64(pairKeyB(pair)))),
		proc.A(tuple.I(val)),
	}
}

// waiter abstracts the two durable-commit future shapes the journals settle
// on: the in-process *pacman.Future and the wire client's *client.Future.
// Both resolve at epoch release (or with a terminal error).
type waiter interface {
	Wait() (pacman.TS, error)
}

// submitFn is how a generated transaction reaches the system.
type submitFn func(name string, args pacman.Args) waiter

// pending is one in-flight submission with its oracle metadata.
type pending struct {
	fut      waiter
	lo, hi   int64 // committed delta bounds on SAVINGS+CHECKING
	logged   bool
	mayAbort bool
	stamp    int // ledger pair index, -1 if none
	stampVal int64
}

// generate submits one transaction of the mix and returns it with oracle
// metadata. Roughly 1/8 of submissions are ledger stamps; the rest are the
// workload's own mix (with integer-valued amounts for smallbank, so the
// conservation oracle is exact).
func (e *engine) generate(rng *rand.Rand, submit submitFn) pending {
	if rng.Intn(8) == 0 {
		if pair := e.takeStamp(); pair >= 0 {
			val := 1 + rng.Int63n(1<<40)
			return pending{fut: submit("TortureStamp", stampArgs(pair, val)), logged: true, stamp: pair, stampVal: val}
		}
	}
	if e.wk != nil { // TPC-C: native mix, ledger-only oracle
		tx := e.wk.Generate(rng)
		name := tx.Proc.Name()
		return pending{
			fut: submit(name, tx.Args),
			// Only transactions guaranteed to install at least one write
			// count toward the replayed-entry bound (Delivery, for one, can
			// legally commit with nothing to deliver).
			logged:   name == "NewOrder" || name == "Payment",
			mayAbort: tx.MayAbort,
			stamp:    -1,
		}
	}
	return e.smallbankTxn(rng, submit)
}

// smallbankTxn generates one Smallbank transaction with integer amounts and
// exact conservation deltas — cross-shard payments are delta zero, which is
// precisely why a torn one is detectable.
func (e *engine) smallbankTxn(rng *rand.Rand, submit submitFn) pending {
	cust := func() int64 {
		if rng.Intn(4) == 0 {
			return 1 + rng.Int63n(4) // hot keys
		}
		return 1 + rng.Int63n(sbCustomers)
	}
	c1, c2 := cust(), cust()
	// Self-transfers are not conserving under snapshot reads (the second
	// read of the same row sees the pre-write value), so Amalgamate and
	// SendPayment use distinct customers, as the Smallbank spec intends.
	for c2 == c1 {
		c2 = cust()
	}
	amt := 1 + rng.Int63n(99) // integer-valued: conservation is exact
	fa := proc.A(tuple.F(float64(amt)))
	p := pending{stamp: -1, logged: true}
	switch rng.Intn(10) {
	case 0, 1:
		// Amalgamate has no cross-shard split: on a cluster its two
		// customers share a shard.
		for e.part != nil && (c2 == c1 || shardOf(e.part, c2) != shardOf(e.part, c1)) {
			c2 = cust()
		}
		p.fut = submit("Amalgamate", pacman.Args{proc.A(tuple.I(c1)), proc.A(tuple.I(c2))})
	case 2, 3:
		p.fut = submit("DepositChecking", pacman.Args{proc.A(tuple.I(c1)), fa})
		p.lo, p.hi = amt, amt
	case 4, 5:
		p.fut = submit("SendPayment", pacman.Args{proc.A(tuple.I(c1)), proc.A(tuple.I(c2)), fa})
		// An underfunded SendPayment commits with ZERO writes and therefore
		// produces no log record: it cannot count toward the replayed-entry
		// lower bound (conservation still holds either way). Across shards
		// the unfunded debit aborts loudly instead (the 2PC prepare votes
		// no).
		p.logged = false
		p.mayAbort = e.part != nil
	case 6:
		v := amt
		if rng.Intn(3) == 0 {
			v = -v
		}
		p.fut = submit("TransactSavings", pacman.Args{proc.A(tuple.I(c1)), proc.A(tuple.F(float64(v)))})
		p.lo, p.hi = v, v
		p.mayAbort = true
	case 7, 8:
		p.fut = submit("WriteCheck", pacman.Args{proc.A(tuple.I(c1)), fa})
		p.lo, p.hi = -amt-1, -amt // overdraft penalty is state-dependent
	default:
		p.fut = submit("Balance", pacman.Args{proc.A(tuple.I(c1))})
		p.logged = false
	}
	return p
}

func shardOf(part shard.Partitioner, cust int64) int {
	s, _ := part.ShardOf("CHECKING", cust)
	return s
}

// load is one cycle's client population: Clients goroutines sharing the
// cycle's transaction budget, each settling into its own journal. done
// closes once every client has settled its window.
type load struct {
	budget atomic.Int64
	stop   atomic.Bool
	done   chan struct{}
	js     []*journal
}

// drive starts the cycle's load clients. Client c submits through submit
// with at most window transactions in flight, until stop is set or the
// budget runs out. brownout, when set, makes them gray clients: they back
// off while shed and never stop on the budget (see admit).
func (e *engine) drive(cycle, window int, submit func(c int, name string, args pacman.Args) waiter, brownout func() bool) *load {
	l := &load{done: make(chan struct{}), js: make([]*journal, e.cfg.Clients)}
	l.budget.Store(int64(e.cfg.TxnsPerCycle))
	var salt int64
	if brownout != nil {
		salt = 0x6772617921 // gray clients draw their own streams
	}
	var wg sync.WaitGroup
	for c := range l.js {
		j := &journal{}
		l.js[c] = j
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(e.cfg.Seed ^ int64(cycle)*7919 ^ int64(c)*104729 ^ salt))
			sub := func(name string, args pacman.Args) waiter { return submit(c, name, args) }
			var inflight []pending
			for !l.stop.Load() && l.admit(brownout) {
				inflight = append(inflight, e.generate(rng, sub))
				if len(inflight) >= window {
					j.settle(inflight[0], e.opaque)
					inflight = inflight[1:]
				}
			}
			for _, p := range inflight {
				j.settle(p, e.opaque)
			}
		}()
	}
	go func() { wg.Wait(); close(l.done) }()
	return l
}

// admit spends one unit of budget, reporting whether the client may submit.
// A gray client always may: it backs off while shed (spinning would flood
// the journal with rejections and starve the recovery phase of the traffic
// whose fast syncs decay the breached latency average), and a spent budget
// drops it to a trickle instead of stopping it — the detection oracle needs
// syncs still happening after the fault arms, and the cycle ends when the
// assertions do, not when the budget does.
func (l *load) admit(brownout func() bool) bool {
	if brownout == nil {
		return l.budget.Add(-1) >= 0
	}
	if brownout() || l.budget.Add(-1) < 0 {
		time.Sleep(time.Millisecond)
	}
	return true
}
