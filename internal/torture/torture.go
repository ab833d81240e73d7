// Package torture is the crash-injection torture subsystem: it drives real
// workloads through the public pacman lifecycle (Launch → serve → crash →
// Restart → serve → crash → ...) under seeded fault plans that power-fail
// the storage devices mid-flush, mid-checkpoint, mid-manifest, and mid-
// Restart itself, and verifies after every recovery that the durability
// and atomicity promises the system made actually held (see oracle.go).
//
// One cycle engine runs four shapes of the system under test, each picked by
// its entry point: in process through a Frontend (Run), one daemon behind the
// wire protocol (RunNet), gray faults that slow devices without killing them
// (RunGray), and a sharded cluster behind a 2PC router (RunCluster).
//
// Everything derives from one RNG seed: the fault plans, the transaction
// mix, and the crash cadence. A failing run reports its seed and the armed
// fault plans, and rerunning with that seed re-arms the identical plans —
// the violation prints the command (`pacman-bench -exp torture|net|gray
// -seed <s> ...`). (Plan derivation is fully deterministic; the exact trip
// instant still depends on goroutine scheduling, which is why the oracle
// checks properties that must hold under every interleaving.)
package torture

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"

	"pacman"
	"pacman/client"
	"pacman/internal/shard"
	"pacman/internal/simdisk"
	"pacman/internal/workload"
)

// Supported workloads.
const (
	WorkloadSmallbank = "smallbank"
	WorkloadTPCC      = "tpcc"
)

// The fixed shape of every run.
const (
	// recoveryThreads is Restart's parallelism.
	recoveryThreads = 2
	// checkpointPct is the chance that a power-fail cycle takes a checkpoint
	// in the middle of traffic — in the fault window, so crashes land mid-
	// checkpoint too.
	checkpointPct = 50
	// recoveryCrashPct is the chance that a Restart attempt runs under an
	// armed fault plan and must be re-entered.
	recoveryCrashPct = 40
	// sbCustomers is the Smallbank key space, deliberately hot.
	sbCustomers = 64
	// maxRetries lets the hot key space retry hard: a retry storm is load,
	// not a bug.
	maxRetries = 1 << 20
)

// Config tunes one torture run. The zero value of every field has a
// working default; Seed 0 means seed 1.
type Config struct {
	// Seed drives every random choice of the run.
	Seed int64
	// Cycles is the number of crash→Restart→verify→serve cycles (default 4).
	Cycles int
	// Logging selects the durability scheme under test (default command
	// logging; the recovery scheme is auto-derived by Restart).
	Logging pacman.LogKind
	// Workload is WorkloadSmallbank (default) or WorkloadTPCC. Smallbank
	// adds the balance-conservation oracle; both carry the ledger oracle.
	// RunCluster serves Smallbank only.
	Workload string
	// Clients/Workers size the load and the serving pool (defaults 4/4).
	Clients, Workers int
	// TxnsPerCycle bounds a cycle's submissions when no fault trips first
	// (default 400).
	TxnsPerCycle int
	// ForceRecoveryCrash arms a read-triggered power failure on the first
	// recovery unconditionally, guaranteeing the run exercises a crash
	// *during* Restart (CI uses this).
	ForceRecoveryCrash bool
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Cycles <= 0 {
		c.Cycles = 4
	}
	if c.Logging == pacman.NoLogging {
		c.Logging = pacman.CommandLogging
	}
	if c.Workload == "" {
		c.Workload = WorkloadSmallbank
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.TxnsPerCycle <= 0 {
		c.TxnsPerCycle = 400
	}
	return c
}

// Stats reports what one torture run did — the denominator that makes a
// green run meaningful.
type Stats struct {
	Cycles int
	// Acked counts transactions acknowledged durable; AckedLogged excludes
	// read-only ones. Maybe counts executions the crash beat to the ack.
	Acked, AckedLogged, Maybe int64
	// Rejected counts submissions refused by a closing frontend; Aborted
	// counts explicit rollbacks.
	Rejected, Aborted int64
	// ServeTrips counts cycles whose fault plan power-failed the devices
	// mid-traffic (the rest crashed on the budget boundary).
	ServeTrips int
	// RecoveryCrashes counts Restart attempts killed by an armed fault —
	// each one re-entered recovery from the crashed state.
	RecoveryCrashes int
	// TransientReadFaults counts recoveries that failed on an injected read
	// error and succeeded on retry.
	TransientReadFaults int
	// Checkpoints counts checkpoints that completed during serve phases.
	Checkpoints int
	// SnapScans counts snapshot-scan oracle passes completed during serve
	// phases (each pass checks ledger-pair atomicity at a released cut and
	// re-scan immutability of the pinned view).
	SnapScans int
	// Stamps counts ledger pairs written (the per-txn read-back oracle).
	Stamps int
	// Replayed is the final recovery's entry count.
	Replayed int
	// ShardKills/RouterKills count the cluster cycle's victims: shard
	// instances and router incarnations killed mid-traffic (zero outside
	// RunCluster).
	ShardKills, RouterKills int
	// DeadlineExpired counts futures resolved ErrDeadlineExceeded (execution
	// unknown), Shed counts never-executed rejections (brownout at
	// admission), and Brownouts counts watchdog brownout entries observed
	// across the run (all zero outside RunGray).
	DeadlineExpired, Shed, Brownouts int64
}

func (s Stats) String() string {
	out := fmt.Sprintf("cycles=%d acked=%d (logged %d) maybe=%d rejected=%d aborted=%d serveTrips=%d recoveryCrashes=%d transientReads=%d ckpts=%d snapScans=%d stamps=%d replayed=%d",
		s.Cycles, s.Acked, s.AckedLogged, s.Maybe, s.Rejected, s.Aborted,
		s.ServeTrips, s.RecoveryCrashes, s.TransientReadFaults, s.Checkpoints, s.SnapScans, s.Stamps, s.Replayed)
	if s.ShardKills > 0 || s.RouterKills > 0 {
		out += fmt.Sprintf(" shardKills=%d routerKills=%d", s.ShardKills, s.RouterKills)
	}
	if s.DeadlineExpired > 0 || s.Shed > 0 || s.Brownouts > 0 {
		out += fmt.Sprintf(" deadlineExpired=%d shed=%d brownouts=%d", s.DeadlineExpired, s.Shed, s.Brownouts)
	}
	return out
}

// Violation is the oracle-failure error: it carries everything needed to
// reproduce the run — the seed AND the run shape, because the fault-plan
// stream consumes RNG draws per cycle and per injected recovery attempt,
// so a different cycle count, budget, or force flag derives different
// plans from the same seed.
type Violation struct {
	Seed   int64
	Cycle  int
	Cfg    Config
	Plans  []string
	Faults []string

	// exp is the pacman-bench experiment that reruns the violating shape;
	// "" for the cluster shape, which has none.
	exp string
}

func (v *Violation) Error() string {
	repro := fmt.Sprintf("torture.RunCluster(torture.Config%+v)", v.Cfg)
	if v.exp != "" {
		repro = fmt.Sprintf("pacman-bench -exp %s -seed %d -iters 1 -cycles %d -txns %d -workers %d -force=%t",
			v.exp, v.Seed, v.Cfg.Cycles, v.Cfg.TxnsPerCycle, v.Cfg.Workers, v.Cfg.ForceRecoveryCrash)
	}
	return fmt.Sprintf("torture: ORACLE VIOLATION at seed %d, cycle %d (%s/%v):\n  - %s\nfault plans so far:\n  %s\nreproduce: %s",
		v.Seed, v.Cycle, v.Cfg.Workload, v.Cfg.Logging,
		strings.Join(v.Faults, "\n  - "), strings.Join(v.Plans, "\n  "), repro)
}

// Run executes one in-process torture run (see inproc) and returns its
// stats; the error is a *Violation when the oracle caught the system
// breaking a promise, or an infrastructure error otherwise.
func Run(cfg Config) (*Stats, error) { return run(cfg, "torture", openInproc) }

// RunNet executes one network torture run (see netTarget) over network
// ("unix" or "tcp").
func RunNet(cfg Config, network string) (*Stats, error) {
	return run(cfg, "net", func(e *engine) (target, error) { return openNet(e, network) })
}

// RunGray executes one gray-failure torture run (see grayTarget).
func RunGray(cfg Config) (*Stats, error) { return run(cfg, "gray", openGray) }

// RunCluster executes one sharded-cluster torture run (see clusterTarget).
func RunCluster(cfg Config) (*Stats, error) { return run(cfg, "", openCluster) }

// target is what one torture shape supplies to the cycle engine. Its
// errors are *Violations (see engine.violation) or infrastructure errors.
type target interface {
	// serve drives one cycle's load (through engine.drive), runs the shape's
	// mid-traffic event, and kills the victim; it returns the settled client
	// journals.
	serve(e *engine, cycle int) ([]*journal, error)
	// recover brings the victim back and verifies the recovered state
	// against the oracle.
	recover(e *engine, cycle int) (*pacman.RecoveryResult, error)
	// exec is the synchronous submission that proves the recovered system
	// serves.
	exec(name string, args pacman.Args) (pacman.TS, error)
}

// engine is one torture run: the RNG every fault plan and kill derives
// from, the plan log a Violation prints, the ledger, the oracle and the
// stats — everything the four shapes share.
type engine struct {
	cfg     Config
	exp     string
	rng     *rand.Rand
	st      *Stats
	plans   []string
	closers []func()

	oracle *oracle
	wk     workload.Workload // TPC-C generator; nil for Smallbank
	// part places customers on a cluster's shards; nil for one instance.
	part shard.Partitioner
	// opaque settles unknown errors as maybes instead of violations (see
	// clusterTarget).
	opaque    bool
	pairs     int
	nextStamp atomic.Int64
}

func newEngine(cfg Config, exp string) *engine {
	cfg = cfg.withDefaults()
	return &engine{cfg: cfg, exp: exp, rng: rand.New(rand.NewSource(cfg.Seed)), st: &Stats{}}
}

// run is the cycle loop every shape shares: serve until the victim dies,
// fold the journals into the oracle, recover and verify, then prove the
// recovered system serves.
func run(cfg Config, exp string, open func(*engine) (target, error)) (*Stats, error) {
	e := newEngine(cfg, exp)
	defer e.close()
	t, err := open(e)
	if err != nil {
		return e.st, err
	}
	for cycle := 0; cycle < e.cfg.Cycles; cycle++ {
		e.st.Cycles = cycle + 1
		js, err := t.serve(e, cycle)
		if err == nil {
			err = e.violation(cycle, e.oracle.absorb(js, e.st)...)
		}
		var res *pacman.RecoveryResult
		if err == nil {
			res, err = t.recover(e, cycle)
		}
		if err == nil {
			err = e.proveServing(cycle, t.exec, res)
		}
		e.st.Stamps = e.stampsUsed()
		if err != nil {
			return e.st, err
		}
	}
	return e.st, nil
}

// onClose registers a release step; close runs them last-registered first.
func (e *engine) onClose(f func()) { e.closers = append(e.closers, f) }

func (e *engine) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
}

func (e *engine) logPlan(kind string, cycle int, p *simdisk.FaultPlan) {
	e.plans = append(e.plans, fmt.Sprintf("cycle %d %s: %s", cycle, kind, p.String()))
}

// violation is the *Violation for the faults caught in cycle, or nil when
// there are none.
func (e *engine) violation(cycle int, faults ...string) error {
	if len(faults) == 0 {
		return nil
	}
	return &Violation{Seed: e.cfg.Seed, Cycle: cycle, Cfg: e.cfg, Plans: e.plans, Faults: faults, exp: e.exp}
}

// proveServing executes one synchronous durable stamp through exec: the
// recovered system must serve immediately, commit above the recovered
// pepoch, and read the stamp back in the next cycle's verification.
//
// A prober whose connection predates the kill can see its first stamp
// resolve ErrConnLost — on TCP the doomed frame sits in a kernel buffer
// until the reset arrives, which is the client's documented "outcome
// unknown" contract, not an availability failure. Each lost stamp is
// recorded as a maybe for the oracle and the proof retried on a fresh
// ledger pair; only persistent refusal is a violation.
func (e *engine) proveServing(cycle int, exec func(string, pacman.Args) (pacman.TS, error), res *pacman.RecoveryResult) error {
	j := &journal{}
	for attempt := 0; ; attempt++ {
		pair := e.takeStamp()
		if pair < 0 {
			return e.violation(cycle, "torture harness bug: ledger exhausted")
		}
		val := int64(1_000_000_000) + int64(pair)
		ts, err := exec("TortureStamp", stampArgs(pair, val))
		p := pending{logged: true, stamp: pair, stampVal: val}
		if errors.Is(err, client.ErrConnLost) && attempt < 4 {
			j.maybe(p)
			continue
		}
		if err != nil {
			return e.violation(cycle, fmt.Sprintf("restarted instance refused a durable commit: %v", err))
		}
		if epoch := uint32(ts >> 32); epoch <= res.Pepoch {
			return e.violation(cycle, fmt.Sprintf("post-restart commit epoch %d not above recovered pepoch %d", epoch, res.Pepoch))
		}
		j.ack(p, ts)
		e.oracle.absorb([]*journal{j}, e.st)
		return nil
	}
}
