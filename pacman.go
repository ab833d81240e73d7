// Package pacman is a main-memory transactional storage engine with
// pluggable logging (physical, logical, command) and parallel failure
// recovery, reproducing "Fast Failure Recovery for Main-Memory DBMSs on
// Multicores" (Wu, Guo, Chan, Tan — SIGMOD 2017).
//
// The headline capability is PACMAN itself: parallel replay of
// coarse-grained command logs. Stored procedures are declared in a small IR
// (package proc re-exported here), statically decomposed into slices and a
// global dependency graph at registration time, and re-executed at recovery
// as a pipeline of piece-sets whose internal parallelism comes from the
// runtime parameter values.
//
// Typical lifecycle — declare once, launch, and restart on the same devices
// (see Blueprint, Launch, Restart):
//
//	bp := pacman.Blueprint{Tables: ..., Procedures: ..., Seed: ...}
//	db, _ := pacman.Launch(bp, pacman.Options{Logging: pacman.CommandLogging})
//	fe, _ := db.NewFrontend(pacman.FrontendConfig{Workers: 8})
//	fut := fe.Submit("Transfer", args) // returns at execution
//	ts, err := fut.Wait()              // resolves at group-commit release
//	fe.Close()                         // drain, retire the session pool
//	...
//	db.Crash()                         // simulate failure
//	db2, res, _ := pacman.Restart(db.Devices(), bp, pacman.RecoverConfig{Threads: 8})
//	// db2 is started and servable: Frontends work, new commits append to
//	// the same log devices, and a second crash+Restart recovers everything.
//
// Launch persists a catalog manifest to the devices; Restart validates the
// blueprint against it (failing loudly on reordered or drifted tables,
// procedures, or seed), recovers, and returns a started instance whose
// epoch clock and WAL resume past the recovered tail.
//
// The step-by-step Open → DefineTable → Register → Populate → Start dance
// remains available for callers that build catalogs imperatively (the
// experiment harness adopts pre-built workload catalogs via Adopt), and
// DB.Recover remains the offline-recovery escape hatch for devices without
// a manifest.
//
// The Frontend multiplexes any number of client goroutines over a bounded
// session pool and owns heartbeating. Its one submission call,
// SubmitRequest, takes a Request value — procedure, arguments, log mode
// (command, ad-hoc, distributed), deadline, and a non-blocking flag — and
// returns a Future; Submit and SubmitWithin are shorthands for it. Raw
// Sessions remain available for callers that pin one worker per goroutine
// and execute synchronously (see Session).
package pacman

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pacman/internal/analysis"
	"pacman/internal/checkpoint"
	"pacman/internal/engine"
	"pacman/internal/frontend"
	"pacman/internal/health"
	"pacman/internal/metrics"
	"pacman/internal/mvcc"
	"pacman/internal/proc"
	"pacman/internal/recovery"
	"pacman/internal/sched"
	"pacman/internal/simdisk"
	"pacman/internal/tuple"
	"pacman/internal/txn"
	"pacman/internal/wal"
)

// Re-exported types so applications use one import.
type (
	// Schema describes a table (see tuple.NewSchema).
	Schema = tuple.Schema
	// Tuple is a row value.
	Tuple = tuple.Tuple
	// Value is a column value.
	Value = tuple.Value
	// Procedure is the stored-procedure IR root.
	Procedure = proc.Procedure
	// Args carries one invocation's parameters.
	Args = proc.Args
	// Scheme selects a recovery scheme.
	Scheme = recovery.Scheme
	// LogKind selects a logging scheme.
	LogKind = wal.Kind
	// RecoveryResult reports recovery phase timings.
	RecoveryResult = recovery.Result
	// DeviceConfig models storage performance.
	DeviceConfig = simdisk.Config
	// Device is a simulated storage device.
	Device = simdisk.Device
	// TS is a commit timestamp.
	TS = engine.TS
	// Table is a storage-engine table handle.
	Table = engine.Table
	// Row is a table row: a stable identity carrying the version chain.
	Row = engine.Row
	// GDG is the global dependency graph from static analysis.
	GDG = analysis.GDG
	// ReplayMode selects CLR-P's parallelism level.
	ReplayMode = sched.Mode
	// SnapshotView is a pinned consistent snapshot of the database at a
	// released epoch: reads through it never latch rows, never join OCC
	// validation, and therefore never abort writers. Close it when done so
	// version garbage collection can pass its epoch.
	SnapshotView = mvcc.View
	// MVCCStats reports the multi-version subsystem's observability
	// counters (versions reclaimed, chain lengths, GC floor, pinned views).
	MVCCStats = mvcc.Stats
	// HealthSnapshot is a point-in-time report from the gray-failure
	// watchdog: state (healthy/brownout), per-signal values vs budgets, and
	// the retained transition history. JSON-tagged for dashboards and the
	// bench harness.
	HealthSnapshot = health.Snapshot
	// SyncStats is one log device's sync-latency telemetry.
	SyncStats = wal.SyncStats
)

// Logging schemes.
const (
	NoLogging       = wal.Off
	PhysicalLogging = wal.Physical
	LogicalLogging  = wal.Logical
	CommandLogging  = wal.Command
)

// Recovery schemes. AutoScheme (the zero value) is resolved by Restart from
// the logging kind recorded in the devices' catalog manifest.
const (
	AutoScheme = recovery.Auto
	PLR        = recovery.PLR
	LLR        = recovery.LLR
	LLRP       = recovery.LLRP
	CLR        = recovery.CLR
	CLRP       = recovery.CLRP
)

// Replay modes for CLR-P (the Figure 18/19 ablations).
const (
	StaticOnly  = sched.StaticOnly
	Synchronous = sched.Synchronous
	Pipelined   = sched.Pipelined
)

// Argument helpers, re-exported so applications (and pacmand wire clients)
// can build Args without importing the internal packages: each parameter is
// a value list, so Args{A(I(7)), A(I(100))} invokes a two-parameter
// procedure with single values.

// A wraps one value as a single-valued parameter.
func A(v Value) []Value { return proc.A(v) }

// I makes an integer column value.
func I(v int64) Value { return tuple.I(v) }

// F makes a float column value.
func F(v float64) Value { return tuple.F(v) }

// S makes a string column value.
func S(v string) Value { return tuple.S(v) }

// Options configures a database instance.
type Options struct {
	// Logging selects the durability scheme. The zero value is NoLogging:
	// commits acknowledge without touching the devices and the instance
	// cannot be recovered — set CommandLogging (the paper's default),
	// PhysicalLogging, or LogicalLogging for durability.
	Logging LogKind
	// Devices is the number of simulated storage devices (default 2, like
	// the paper's two-SSD setup). Ignored when ExistingDevices is set.
	Devices int
	// DeviceConfig models each device; zero value means unlimited speed.
	DeviceConfig DeviceConfig
	// ExistingDevices reuses externally created devices (shared between a
	// crashed instance and its recovering successor).
	ExistingDevices []*Device
	// EpochInterval is the group-commit epoch length (default 10ms).
	EpochInterval time.Duration
	// BatchEpochs is the number of epochs per log batch file (default 100,
	// per the paper's Appendix A).
	BatchEpochs uint32
	// DisableSync skips fsync on log flushes (Table 3's "w/o fsync").
	DisableSync bool
	// SingleVersion disables the version chains kept on update (multi-
	// version retention is the default and is required for online
	// checkpointing to run concurrently with transactions).
	SingleVersion bool
	// CheckpointEvery enables periodic checkpointing at this interval.
	CheckpointEvery time.Duration
	// CheckpointThreads is the checkpoint writer thread count (default 1
	// per device).
	CheckpointThreads int
	// MaxRetries bounds OCC retries per transaction before the conflict
	// surfaces to the caller (default 10000).
	MaxRetries int
	// ValueLogProcs names stored procedures whose commits are always logged
	// as values (tuple records) even under command logging — the adaptive
	// per-transaction logging policy for distributed or dependency-heavy
	// procedures. The 2PC pieces of a cross-shard commit are the canonical
	// members: a shard replaying its log must never re-execute a piece whose
	// inputs came from another shard, so their effects are persisted as
	// self-contained value records (see docs/ARCHITECTURE.md, "Sharding &
	// cross-shard commit"). Unknown names are ignored.
	ValueLogProcs []string
	// OnRelease observes transactions whose results become durable (group
	// commit released). It rides the same release path that resolves
	// durable-commit Futures; prefer per-request Futures
	// (Frontend.SubmitRequest) for new code — they carry per-transaction
	// (TS, ExecAt, DurableAt) instead of one global hook.
	OnRelease func(ts []TS, start []time.Time)
	// Health tunes the gray-failure watchdog (zero value: enabled with
	// generous budgets scaled off EpochInterval).
	Health HealthConfig
}

// HealthConfig tunes the health watchdog a started instance runs (see
// internal/health). The watchdog samples a handful of liveness signals —
// epoch-clock advance, persisted-epoch advance, log-device sync latency,
// and frontend queue stall — and flips every Frontend into brownout
// (shedding new work with ErrBrownout, surfaced over the wire as
// Backpressure) when a signal stays over budget, clearing it again once
// the signal recovers. The zero value enables the watchdog with budgets
// generous enough that only a genuinely gray instance — a hung or
// crawling device, a wedged epoch clock — ever trips them.
type HealthConfig struct {
	// Disable turns the watchdog off entirely.
	Disable bool
	// Interval is the sweep cadence (default max(EpochInterval, 5ms)).
	Interval time.Duration
	// TripAfter / ClearAfter are the brownout hysteresis in sweeps
	// (defaults 2 and 4 — recovery must be proven, not glimpsed).
	TripAfter  int
	ClearAfter int
	// EpochStallBudget bounds how long the epoch clock may fail to advance
	// (default max(50×EpochInterval, 1s)).
	EpochStallBudget time.Duration
	// PepochStallBudget bounds how long the persisted epoch may fail to
	// advance while logging is active (default max(100×EpochInterval, 2s)).
	// Note the SiloR liveness contract: an idle raw Session that never
	// heartbeats stalls the pepoch legitimately — this signal assumes
	// Frontends (which heartbeat internally) or well-behaved Sessions.
	PepochStallBudget time.Duration
	// SyncLatencyBudget bounds a log device's sync latency — the worst over
	// devices of max(EWMA, in-flight sync age), so a sync that never
	// returns is seen as ever-growing latency (default max(50×EpochInterval,
	// 1s)).
	SyncLatencyBudget time.Duration
	// QueueStallBudget bounds how long a frontend's submission queue may go
	// without a dequeue while non-empty (default max(100×EpochInterval, 2s)).
	QueueStallBudget time.Duration
	// OnTransition observes brownout entry/exit (after the built-in
	// frontend fan-out). Must not block.
	OnTransition func(from, to string, cause string)
	// Logf, when non-nil, receives one line per watchdog transition.
	Logf func(format string, args ...any)
}

// withDefaults scales the zero-value budgets off the instance's epoch
// cadence, flooring them at human-scale values so ordinary tests and
// deployments never trip on scheduling noise.
func (h HealthConfig) withDefaults(epoch time.Duration) HealthConfig {
	atLeast := func(d, scaled, floor time.Duration) time.Duration {
		if d > 0 {
			return d
		}
		if scaled < floor {
			return floor
		}
		return scaled
	}
	h.Interval = atLeast(h.Interval, epoch, 5*time.Millisecond)
	h.EpochStallBudget = atLeast(h.EpochStallBudget, 50*epoch, time.Second)
	h.PepochStallBudget = atLeast(h.PepochStallBudget, 100*epoch, 2*time.Second)
	h.SyncLatencyBudget = atLeast(h.SyncLatencyBudget, 50*epoch, time.Second)
	h.QueueStallBudget = atLeast(h.QueueStallBudget, 100*epoch, 2*time.Second)
	return h
}

// DB is a database instance: catalog, transaction manager, loggers, and
// (optionally) a checkpoint daemon.
type DB struct {
	opts    Options
	db      *engine.Database
	reg     *proc.Registry
	mgr     *txn.Manager
	logset  *wal.LogSet
	snap    *mvcc.Manager
	daemon  *checkpoint.Daemon
	devices []*Device
	started bool
	gdg     *analysis.GDG

	// seedHash fingerprints the deterministic initial population as rows
	// pass through Seed; the fingerprint lands in the catalog manifest.
	seedHash *wal.SeedHash
	// resumePepoch is the restart floor: the epoch up to which the devices
	// were already durable when this (restarted) instance took over.
	resumePepoch uint32
	// ckptSeed is the id of the checkpoint this instance recovered from;
	// new checkpoints take strictly larger ids.
	ckptSeed    uint32
	manualCkpts atomic.Uint32

	// valueLog is Options.ValueLogProcs as a set: procedures whose commits
	// are forced onto the value-logging path.
	valueLog map[string]bool

	// watchdog is the gray-failure monitor started with the instance; its
	// brownout transitions fan out to every live frontend. frontends is the
	// registry that fan-out walks (and the queue-stall signal samples),
	// guarded by femu; brownout caches the current state so a frontend
	// created mid-brownout starts shedding immediately.
	watchdog  *health.Watchdog
	femu      sync.Mutex
	frontends map[*frontend.Frontend]struct{}
	brownout  atomic.Bool
}

// Adopt wraps a pre-built catalog and procedure registry (e.g., one of the
// internal/workload benchmarks) in a DB instance. The experiment harness
// uses it to avoid re-declaring benchmark schemas; note that populations
// installed directly against the adopted catalog bypass Seed, so the
// persisted manifest carries no seed fingerprint and the instance cannot be
// validated by Restart — recover adopted instances with DB.Recover.
func Adopt(db *engine.Database, reg *proc.Registry, opts Options) *DB {
	d := Open(opts)
	d.db = db
	d.reg = reg
	d.mgr = txn.NewManager(db, txn.Config{
		MultiVersion:  !opts.SingleVersion,
		EpochInterval: d.opts.EpochInterval,
		MaxRetries:    d.opts.MaxRetries,
	})
	return d
}

// Open creates a database instance. Define tables and procedures, populate,
// then Start. (Launch bundles these steps from a Blueprint.)
func Open(opts Options) *DB {
	if opts.Devices <= 0 {
		opts.Devices = 2
	}
	if opts.EpochInterval <= 0 {
		opts.EpochInterval = 10 * time.Millisecond
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 10000
	}
	d := &DB{
		opts:     opts,
		db:       engine.NewDatabase(),
		reg:      proc.NewRegistry(),
		seedHash: wal.NewSeedHash(),
	}
	if len(opts.ValueLogProcs) > 0 {
		d.valueLog = make(map[string]bool, len(opts.ValueLogProcs))
		for _, name := range opts.ValueLogProcs {
			d.valueLog[name] = true
		}
	}
	if len(opts.ExistingDevices) > 0 {
		d.devices = opts.ExistingDevices
	} else {
		for i := 0; i < opts.Devices; i++ {
			d.devices = append(d.devices, simdisk.New(fmt.Sprintf("ssd%d", i), opts.DeviceConfig))
		}
	}
	d.mgr = txn.NewManager(d.db, txn.Config{
		MultiVersion:  !opts.SingleVersion,
		EpochInterval: opts.EpochInterval,
		MaxRetries:    opts.MaxRetries,
	})
	return d
}

// DefineTable adds a table to the catalog. All tables must be defined
// before procedures referencing them are registered, and in the same order
// between a logging run and its recovery run.
func (d *DB) DefineTable(s *Schema) (*Table, error) {
	return d.db.AddTable(s)
}

// MustDefineTable is DefineTable that panics on error.
func (d *DB) MustDefineTable(s *Schema) *Table {
	return d.db.MustAddTable(s)
}

// Register compiles and registers a stored procedure. Registration order
// assigns the procedure IDs recorded in command logs, so it must match
// between the logging run and recovery.
func (d *DB) Register(p *Procedure) error {
	_, err := d.reg.Register(d.db, p)
	return err
}

// MustRegister is Register that panics on error.
func (d *DB) MustRegister(p *Procedure) {
	d.reg.MustRegister(d.db, p)
}

// Table returns a table handle.
func (d *DB) Table(name string) *Table { return d.db.Table(name) }

// Seed installs one initial row (population happens before Start; it is
// not logged and must be deterministic so recovery can reproduce it when no
// checkpoint exists). Every seeded row folds into the instance's seed
// fingerprint, which Start persists in the catalog manifest and Restart
// validates against the blueprint's seed.
func (d *DB) Seed(t *Table, key uint64, vals Tuple) {
	d.seedHash.Row(t.Name(), key, vals)
	r, _ := t.GetOrCreateRow(key)
	r.Install(engine.MakeTS(0, 1), vals, false, !d.opts.SingleVersion)
}

// Populate runs a seeding function against the catalog.
func (d *DB) Populate(fn func(seed func(t *Table, key uint64, vals Tuple))) {
	fn(d.Seed)
}

// Analyze runs the static analysis over the registered log-generating
// procedures (those containing at least one modification) and returns the
// global dependency graph. Start calls it implicitly; it is exposed for
// inspection tools.
func (d *DB) Analyze() *GDG {
	var ldgs []*analysis.LDG
	for _, c := range d.reg.All() {
		writes := false
		for _, op := range c.Ops() {
			if op.Kind.IsModification() {
				writes = true
				break
			}
		}
		if writes {
			ldgs = append(ldgs, analysis.BuildLDG(c))
		}
	}
	return analysis.BuildGDG(ldgs)
}

// Start launches the epoch clock, loggers, and checkpoint daemon, runs the
// static analysis, and persists the catalog manifest (table schemas,
// procedure registration order and fingerprints, logging kind, batch
// geometry, seed fingerprint) to the first device so a later Restart can
// validate its blueprint against what was actually logged. Calling Start on
// a started instance is a no-op returning nil.
func (d *DB) Start() error {
	if d.started {
		return nil
	}
	d.gdg = d.Analyze()
	if len(d.devices) > 0 {
		if err := wal.WriteCatalogManifest(d.devices[0], d.catalogManifest()); err != nil {
			return fmt.Errorf("pacman: persisting catalog manifest: %w", err)
		}
	}
	// Only now is the instance committed to starting: a failed manifest
	// write leaves it fresh, so Start can be retried and the not-started
	// guards (NewSession, NewFrontend) keep rejecting.
	d.started = true
	d.mgr.StartEpochTicker()
	if !d.opts.SingleVersion {
		// The retention manager: version chains grow with forward processing
		// and are cut back as the persistent-epoch frontier advances (the
		// OnPepochAdvance kick below), or on the ticker when logging is off.
		d.snap = mvcc.NewManager(d.db, mvcc.Config{
			SnapshotEpoch:  d.mgr.SnapshotEpoch,
			PersistedEpoch: d.PersistedEpoch,
			Interval:       4 * d.opts.EpochInterval,
		})
	}
	cfg := wal.Config{
		Kind:          d.opts.Logging,
		BatchEpochs:   d.opts.BatchEpochs,
		FlushInterval: d.opts.EpochInterval / 4,
		Sync:          !d.opts.DisableSync,
		ResumeEpoch:   d.resumePepoch,
	}
	if d.snap != nil {
		cfg.OnPepochAdvance = func(uint32) { d.snap.Kick() }
	}
	if d.opts.OnRelease != nil {
		rel := d.opts.OnRelease
		cfg.OnRelease = func(cs []*txn.Committed) {
			tss := make([]TS, len(cs))
			starts := make([]time.Time, len(cs))
			for i, c := range cs {
				tss[i] = c.TS
				starts[i] = c.Start
			}
			rel(tss, starts)
		}
	}
	d.logset = wal.NewLogSet(d.mgr, cfg, d.devices)
	d.logset.Start()
	if d.snap != nil {
		d.snap.Start()
	}
	if d.opts.CheckpointEvery > 0 {
		ct := d.opts.CheckpointThreads
		if ct <= 0 {
			ct = len(d.devices)
		}
		d.daemon = checkpoint.NewDaemon(d.mgr, d.snap, d.devices, checkpoint.Config{
			Threads:      ct,
			IncludeSlots: d.opts.Logging == wal.Physical,
		}, d.opts.CheckpointEvery)
		d.daemon.SeedIDs(d.ckptSeed)
		d.daemon.Start()
	}
	if !d.opts.Health.Disable {
		d.startWatchdog()
	}
	return nil
}

// startWatchdog assembles the gray-failure watchdog's signal set and runs
// it. Signals sample lock-free counters and EWMAs, so the sweep costs a few
// loads per interval.
func (d *DB) startWatchdog() {
	hc := d.opts.Health.withDefaults(d.opts.EpochInterval)
	w := health.New(health.Config{
		Interval:   hc.Interval,
		TripAfter:  hc.TripAfter,
		ClearAfter: hc.ClearAfter,
		OnTransition: func(from, to health.State, cause string) {
			d.setBrownout(to == health.Brownout)
			if hc.OnTransition != nil {
				hc.OnTransition(from.String(), to.String(), cause)
			}
		},
		Logf: hc.Logf,
	})
	// Epoch clock must tick: a stalled clock freezes group commit.
	w.Register("epoch-stall", hc.EpochStallBudget,
		health.CounterAge(func() uint64 { return uint64(d.mgr.Epoch()) }))
	if d.logset.Active() {
		// The durability frontier must advance while logging; a hung device
		// or wedged flush shows here first.
		w.Register("pepoch-stall", hc.PepochStallBudget,
			health.CounterAge(func() uint64 { return uint64(d.PersistedEpoch()) }))
		// Per-device sync latency: worst of EWMA and in-flight sync age, so
		// a sync that never completes reads as ever-growing latency.
		w.Register("sync-latency", hc.SyncLatencyBudget, d.logset.SyncProbe())
	}
	// Frontend queue stall: a non-empty queue nothing dequeues from means
	// the session pool is wedged even though the clock still ticks. One
	// aggregate signal over the live-frontend registry, so frontends can
	// come and go without re-registering.
	w.Register("queue-stall", hc.QueueStallBudget, func(now time.Time) time.Duration {
		var worst time.Duration
		d.femu.Lock()
		for fe := range d.frontends {
			if v := fe.QueueStall(now); v > worst {
				worst = v
			}
		}
		d.femu.Unlock()
		return worst
	})
	d.watchdog = w
	w.Start()
}

// registerFrontend adds a frontend to the brownout fan-out (and the
// queue-stall signal), applying the current brownout state so a frontend
// born mid-brownout sheds from its first submission.
func (d *DB) registerFrontend(fe *frontend.Frontend) {
	d.femu.Lock()
	if d.frontends == nil {
		d.frontends = make(map[*frontend.Frontend]struct{})
	}
	d.frontends[fe] = struct{}{}
	fe.SetBrownout(d.brownout.Load())
	d.femu.Unlock()
}

// dropFrontend removes a closed frontend from the registry.
func (d *DB) dropFrontend(fe *frontend.Frontend) {
	d.femu.Lock()
	delete(d.frontends, fe)
	d.femu.Unlock()
}

// setBrownout flips every live frontend's shed flag; runs on the watchdog
// goroutine at each transition.
func (d *DB) setBrownout(on bool) {
	d.femu.Lock()
	d.brownout.Store(on)
	for fe := range d.frontends {
		fe.SetBrownout(on)
	}
	d.femu.Unlock()
}

// Health returns the watchdog's current snapshot: state, per-signal values
// against budgets, and the retained transition history. A disabled (or
// not-started) watchdog reports a healthy snapshot with no signals.
func (d *DB) Health() HealthSnapshot {
	if d.watchdog == nil {
		return HealthSnapshot{State: health.Healthy.String()}
	}
	return d.watchdog.Snapshot()
}

// Brownout reports whether the watchdog currently holds the instance in
// brownout (every frontend shedding new work).
func (d *DB) Brownout() bool { return d.brownout.Load() }

// SyncStats reports per-device log sync-latency telemetry (nil when logging
// is off or the instance is not started).
func (d *DB) SyncStats() []SyncStats {
	if d.logset == nil {
		return nil
	}
	return d.logset.SyncStats()
}

// MustStart is Start that panics on error.
func (d *DB) MustStart() {
	if err := d.Start(); err != nil {
		panic(err)
	}
}

// catalogManifest builds the manifest describing this instance's catalog,
// registration order, logging configuration, and seed fingerprint.
func (d *DB) catalogManifest() *wal.CatalogManifest {
	be := d.opts.BatchEpochs
	if be == 0 {
		be = wal.DefaultBatchEpochs
	}
	m := &wal.CatalogManifest{
		Kind:        d.opts.Logging,
		BatchEpochs: be,
		EpochNanos:  uint64(d.opts.EpochInterval),
		SeedFP:      d.seedHash.Sum(),
	}
	var populated bool
	for _, t := range d.db.Tables() {
		s := t.Schema()
		td := wal.TableDef{Name: t.Name()}
		for i := 0; i < s.NumColumns(); i++ {
			td.Columns = append(td.Columns, s.Column(i))
		}
		m.Tables = append(m.Tables, td)
		populated = populated || t.NumSlots() > 0
	}
	if populated && d.seedHash.Rows() == 0 {
		// Rows exist that never passed through Seed (an adopted catalog
		// populated directly): the fingerprint cannot vouch for the
		// population, so mark the manifest unvalidatable — Restart will
		// refuse it and point at the offline Recover path.
		m.SeedFP = wal.SeedUnverified
	}
	for _, c := range d.reg.All() {
		m.Procs = append(m.Procs, wal.ProcDef{Name: c.Name(), Fingerprint: wal.ProcFingerprint(c)})
	}
	return m
}

// GDGraph returns the dependency graph built at Start (nil before Start).
func (d *DB) GDGraph() *GDG { return d.gdg }

// Procedures returns the registered procedure names in registration order —
// the order that assigns procedure IDs, both in command logs and in the
// wire protocol's HelloAck procedure table (index == proc id).
func (d *DB) Procedures() []string {
	all := d.reg.All()
	names := make([]string, len(all))
	for i, c := range all {
		names[i] = c.Name()
	}
	return names
}

// Devices returns the storage devices (pass them to a recovering instance).
func (d *DB) Devices() []*Device { return d.devices }

// PersistedEpoch returns the current durable epoch.
func (d *DB) PersistedEpoch() uint32 {
	if d.logset == nil {
		return d.mgr.SafeEpoch()
	}
	return d.logset.PersistedEpoch()
}

// CheckpointRunning reports whether a checkpoint is being written.
func (d *DB) CheckpointRunning() bool {
	return d.daemon != nil && d.daemon.Running()
}

// Checkpoint takes one checkpoint immediately. Checkpoint ids increase
// monotonically, and a restarted instance numbers past the checkpoint it
// recovered from, so a newer checkpoint always wins FindLatest.
func (d *DB) Checkpoint() error {
	if d.daemon != nil {
		_, err := d.daemon.RunOnce()
		return err
	}
	ts := engine.MakeTS(d.mgr.SnapshotEpoch(), ^uint32(0))
	if d.snap != nil {
		// Pin the cut so garbage collection cannot truncate the history the
		// checkpoint is streaming while commits continue alongside it.
		v := d.snap.AcquireFresh()
		defer v.Close()
		ts = v.TS()
	}
	_, err := checkpoint.Write(d.db, d.devices, checkpoint.Config{
		Threads:      len(d.devices),
		IncludeSlots: d.opts.Logging == wal.Physical,
	}, d.ckptSeed+d.manualCkpts.Add(1), ts)
	return err
}

// ErrSingleVersion rejects snapshot reads on an instance running with
// Options.SingleVersion: without retained version chains there is no
// consistent historic cut to read.
var ErrSingleVersion = errors.New("pacman: snapshot views require multi-version retention (unset Options.SingleVersion)")

// Snapshot-view errors for explicit-epoch requests, re-exported so callers
// can classify without importing internals.
var (
	// ErrSnapshotReclaimed: the requested epoch is below the garbage
	// collector's floor — its history is gone. Retry at a newer epoch.
	ErrSnapshotReclaimed = mvcc.ErrReclaimed
	// ErrSnapshotFuture: the requested epoch is not yet released (still
	// open for commits, or not yet durable under group commit).
	ErrSnapshotFuture = mvcc.ErrFutureEpoch
)

// SnapshotView pins a consistent snapshot of the database and returns it.
// epoch 0 means "the newest released epoch"; an explicit epoch pins that
// exact cut, failing with ErrSnapshotReclaimed below the GC floor or
// ErrSnapshotFuture above the released frontier. Reads through the view
// (and Frontend.Scan, which wraps it) never abort or block writers. Close
// the view when done — its epoch is pinned against version garbage
// collection until then.
func (d *DB) SnapshotView(epoch uint32) (*SnapshotView, error) {
	if !d.started {
		return nil, ErrNotStarted
	}
	if d.snap == nil {
		return nil, ErrSingleVersion
	}
	if epoch == 0 {
		return d.snap.Acquire(), nil
	}
	return d.snap.AcquireAt(epoch)
}

// MVCCStats reports the multi-version subsystem's counters (zero value on a
// single-version or not-started instance).
func (d *DB) MVCCStats() MVCCStats {
	if d.snap == nil {
		return MVCCStats{}
	}
	return d.snap.Stats()
}

// Epoch returns the current (open) commit epoch; the difference to a
// SnapshotView's Epoch is the view's staleness.
func (d *DB) Epoch() uint32 { return d.mgr.Epoch() }

// Close shuts the instance down cleanly: retires nothing by itself (retire
// sessions first), flushes all logs, and stops background goroutines.
func (d *DB) Close() {
	if d.watchdog != nil {
		d.watchdog.Stop()
	}
	if d.daemon != nil {
		d.daemon.Stop()
	}
	if d.snap != nil {
		d.snap.Stop()
	}
	d.mgr.Stop()
	if d.logset != nil {
		d.mgr.AdvanceEpoch()
		d.logset.Close()
	}
}

// Crash simulates a power failure: all background work halts instantly and
// every device loses its unsynced tail. The in-memory state is left behind
// for post-mortem comparison; recover into a fresh instance.
func (d *DB) Crash() {
	if d.watchdog != nil {
		d.watchdog.Stop()
	}
	if d.daemon != nil {
		d.daemon.Stop()
	}
	if d.snap != nil {
		d.snap.Stop()
	}
	d.mgr.Stop()
	if d.logset != nil {
		// A flush blocked inside a gray hung-sync fault must fail now, or
		// Abort's pipeline join would deadlock on it.
		for _, dev := range d.devices {
			dev.FailHungSyncs()
		}
		d.logset.Abort()
	}
	for _, dev := range d.devices {
		dev.Crash()
	}
}

// ErrNotStarted is returned by NewSession and NewFrontend when the database
// has not been started.
var ErrNotStarted = errors.New("pacman: database not started")

// Future is the durable-commit handle returned by Frontend.SubmitRequest
// (and its Submit/SubmitWithin shorthands). It resolves when the
// transaction's epoch is group-commit released, carrying the commit
// timestamp and the ExecAt/DurableAt instants for per-request latency
// measurement; it resolves with an error when execution fails or the
// instance crashes or closes before durability.
type Future = txn.Future

// Three distinct sentinel errors can resolve a Future, and they mean
// different things — check all three when classifying outcomes:
//
//   - ErrCrashed: the transaction EXECUTED (its in-memory effects were
//     visible) but was not durable at the crash; recovery will not replay it.
//   - ErrClosed: the transaction EXECUTED but its epoch was never released
//     before Close (e.g. an unretired raw Session held back the safe epoch).
//   - ErrFrontendClosed (frontend.go): the submission was REJECTED by a
//     closed Frontend and never executed at all.
var (
	ErrCrashed = wal.ErrCrashed
	ErrClosed  = wal.ErrClosed
)

// Gray-failure sentinels, re-exported from the internals so callers can
// classify without extra imports:
//
//   - ErrDeadlineExceeded: the request's deadline passed before its durable
//     ack. Execution state is UNKNOWN (like a connection loss) — the
//     transaction may still commit durably after the caller gave up, so
//     never auto-retry it.
//   - ErrBrownout: the health watchdog is shedding new work; the request was
//     NEVER executed and is always safe to resubmit after backoff.
var (
	ErrDeadlineExceeded = txn.ErrDeadlineExceeded
	ErrBrownout         = frontend.ErrBrownout
)

// Session is a worker-thread handle for executing transactions, pinned to
// one goroutine. It is the low-level API: the caller owns the SiloR
// liveness contract — an idle Session must Heartbeat (or Retire), or group
// commit stalls on it. Most applications should use a Frontend instead,
// which multiplexes client goroutines over a session pool and heartbeats
// internally.
type Session struct {
	d *DB
	w *txn.Worker
}

// NewSession creates a new execution session, or returns ErrNotStarted
// before Start.
func (d *DB) NewSession() (*Session, error) {
	if !d.started {
		return nil, ErrNotStarted
	}
	w := d.mgr.NewWorker()
	d.logset.AttachWorker(w)
	return &Session{d: d, w: w}, nil
}

// Exec runs a stored procedure by name and returns its commit timestamp.
// The result is NOT durable yet when Exec returns — durability arrives with
// the epoch's group-commit release; a Frontend's Future observes it per
// request.
func (s *Session) Exec(name string, args Args) (TS, error) {
	c := s.d.reg.ByName(name)
	if c == nil {
		return 0, fmt.Errorf("pacman: unknown procedure %q", name)
	}
	return s.w.Execute(c, args, false, time.Now())
}

// Heartbeat publishes liveness while the session is idle; call it when the
// session has no transaction in flight (e.g., an empty request queue), or
// group commit stalls waiting for this session. Frontend owns this
// internally — only raw Session users need it.
func (s *Session) Heartbeat() { s.w.Heartbeat() }

// Retire marks the session finished.
func (s *Session) Retire() { s.w.Retire() }

// RecoverConfig tunes Restart and DB.Recover.
type RecoverConfig struct {
	// Scheme pins the recovery scheme for Restart. The default, AutoScheme,
	// derives it from the logging kind in the devices' catalog manifest
	// (physical→PLR, logical→LLR, command→CLR-P). DB.Recover ignores this
	// field — its scheme is an explicit parameter.
	Scheme Scheme
	// Serve configures the restarted instance's serving behavior (Restart
	// only): EpochInterval, DisableSync, SingleVersion, CheckpointEvery,
	// CheckpointThreads, MaxRetries, OnRelease. The logging kind, batch
	// geometry, and devices always come from the manifest and the device
	// slice — Logging, BatchEpochs, Devices, and ExistingDevices set here
	// are overridden — and a zero EpochInterval inherits the crashed
	// instance's group-commit cadence from the manifest.
	Serve Options
	// Threads is the recovery parallelism (default 1).
	Threads int
	// Mode selects CLR-P's parallelism (default Pipelined).
	Mode ReplayMode
	// DisableLatches is the Figure 15 unsafe toggle for PLR/LLR.
	DisableLatches bool
	// Breakdown receives the Figure 20 phase split when non-nil (use
	// NewBreakdown).
	Breakdown *Breakdown
	// SkipCheckpoint ignores checkpoints on the devices.
	SkipCheckpoint bool
	// SerialReload uses the legacy one-batch-at-a-time log feeder instead
	// of the pipelined multi-device reloader (baseline measurements only).
	SerialReload bool
	// ReloadWindow bounds how many batches the pipelined reloader stages
	// ahead of replay (default 4).
	ReloadWindow int
}

// Breakdown re-exports the metrics breakdown for recovery instrumentation.
type Breakdown = metrics.Breakdown

// NewBreakdown allocates a Figure 20 recovery-time breakdown.
func NewBreakdown() *Breakdown { return sched.NewBreakdown() }

// Recover rebuilds this (fresh, populated, not-started) instance from the
// logs and checkpoints on the given devices using the chosen scheme. It is
// the offline escape hatch: the recovered instance is not started and the
// catalog is taken on faith — no manifest validation, no epoch resume, no
// serving. Applications should Restart instead, which validates a Blueprint
// against the persisted manifest and returns a started, servable instance;
// Recover remains for the experiment harness (measuring recovery in
// isolation) and for devices that predate the manifest.
func (d *DB) Recover(from []*Device, scheme Scheme, cfg RecoverConfig) (*RecoveryResult, error) {
	if d.started {
		return nil, errors.New("pacman: recover into a fresh instance, not a started one")
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	opts := recovery.Options{
		Scheme:         scheme,
		DB:             d.db,
		Registry:       d.reg,
		Devices:        from,
		Threads:        cfg.Threads,
		DisableLatches: cfg.DisableLatches,
		Mode:           cfg.Mode,
		Breakdown:      cfg.Breakdown,
		SkipCheckpoint: cfg.SkipCheckpoint,
		SerialReload:   cfg.SerialReload,
		ReloadWindow:   cfg.ReloadWindow,
	}
	if scheme == recovery.CLRP {
		opts.GDG = d.Analyze()
	}
	return recovery.Run(opts)
}
