// Package harness drives the paper's experiments: it runs workloads under
// configurable logging, crashes them, recovers with every scheme, and
// prints the rows/series of each table and figure of the evaluation
// (Section 6 and Appendix D).
package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pacman/internal/analysis"
	"pacman/internal/checkpoint"
	"pacman/internal/chopping"
	"pacman/internal/frontend"
	"pacman/internal/metrics"
	"pacman/internal/mvcc"
	"pacman/internal/proc"
	"pacman/internal/recovery"
	"pacman/internal/simdisk"
	"pacman/internal/tuple"
	"pacman/internal/txn"
	"pacman/internal/wal"
	"pacman/internal/workload"
)

// WorkloadKind selects the benchmark.
type WorkloadKind string

// Supported workloads.
const (
	TPCC      WorkloadKind = "tpcc"
	Smallbank WorkloadKind = "smallbank"
	BankWk    WorkloadKind = "bank"
)

// RunConfig describes one OLTP run.
type RunConfig struct {
	Workload  WorkloadKind
	TPCC      workload.TPCCConfig
	SB        workload.SmallbankConfig
	BankAccts int

	Logging      wal.Kind
	Devices      int
	DeviceConfig simdisk.Config
	// Workers is the frontend pool size: the number of transaction-
	// execution workers (the paper's 32 worker threads, scaled).
	Workers int
	// Clients is the number of client goroutines multiplexed onto the
	// worker pool through the frontend (default: Workers). Raising it
	// models many logical requests in flight over a bounded pool.
	Clients int
	// Duration bounds the run.
	Duration time.Duration
	// AdHocPct tags this percentage of update transactions ad-hoc.
	AdHocPct int

	EpochInterval   time.Duration
	BatchEpochs     uint32
	DisableSync     bool
	CheckpointEvery time.Duration
	// MaxRetries bounds OCC retries per transaction (default 100000 — the
	// harness prefers long retry storms over failed runs).
	MaxRetries int
	Seed       int64
	// SampleEvery sets the throughput-trace resolution.
	SampleEvery time.Duration
	// ScanTables, when non-empty, runs a concurrent snapshot scanner for
	// the whole run: a goroutine repeatedly pins a view at the newest
	// released epoch and scans the named tables end to end (the mixed
	// OLTP-plus-analytics workload). The scanner reads outside OCC, so it
	// can never abort the OLTP writers; RunResult.Scans/ScanStale*/MVCC
	// report what it saw.
	ScanTables []string
}

// Defaults fills zero fields with bench-scale values.
func (c RunConfig) Defaults() RunConfig {
	if c.Workload == "" {
		c.Workload = TPCC
	}
	if c.Workload == TPCC && c.TPCC.Warehouses == 0 {
		c.TPCC = workload.DefaultTPCCConfig()
		// The paper disables inserts for the logging experiments.
		c.TPCC.DisableInserts = true
	}
	if c.Workload == Smallbank && c.SB.Customers == 0 {
		c.SB = workload.DefaultSmallbankConfig()
	}
	if c.BankAccts == 0 {
		c.BankAccts = 1000
	}
	if c.Devices == 0 {
		c.Devices = 2
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Clients == 0 {
		c.Clients = c.Workers
	}
	if c.Duration == 0 {
		c.Duration = 2 * time.Second
	}
	if c.EpochInterval == 0 {
		c.EpochInterval = 5 * time.Millisecond
	}
	if c.BatchEpochs == 0 {
		c.BatchEpochs = 10
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 250 * time.Millisecond
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 100000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// makeWorkload instantiates the configured benchmark.
func (c RunConfig) makeWorkload() workload.Workload {
	switch c.Workload {
	case Smallbank:
		return workload.NewSmallbank(c.SB)
	case BankWk:
		return workload.NewBank(c.BankAccts)
	default:
		return workload.NewTPCC(c.TPCC)
	}
}

// TraceSample is one point of the Figure 11/12 traces.
type TraceSample struct {
	At            time.Duration
	TPS           float64
	Checkpointing bool
}

// RunResult reports one OLTP run.
type RunResult struct {
	Committed int64
	Aborted   int64
	Elapsed   time.Duration
	// TPS is the overall committed throughput.
	TPS float64
	// Latency is end-to-end durable latency (submit to group-commit
	// release), from Future timestamps; with logging off it is commit
	// latency.
	Latency *metrics.Histogram
	// ExecLatency is submit-to-commit latency (execution only), from the
	// same Futures — the gap to Latency is the group-commit wait.
	ExecLatency *metrics.Histogram
	// LogBytes is the total volume written to the devices by loggers and
	// checkpointers.
	LogBytes int64
	Syncs    int64
	// Mallocs is the system-wide heap allocation count over the run
	// (clients, workers, loggers, checkpointer, sampler — everything), the
	// forward-processing GC-pressure number the throughput experiment
	// tracks.
	Mallocs int64
	// Steals counts cross-queue work steals in the frontend pool — how
	// often an idle worker drained a busy peer's submission queue. The
	// scaling experiment reports it as the load-balance signal of the
	// per-core pipeline.
	Steals int64
	Trace  []TraceSample

	// MVCC reports the multi-version subsystem's counters at run end
	// (versions reclaimed, surviving chain lengths, GC floor).
	MVCC mvcc.Stats
	// Scans counts completed snapshot scans of the concurrent scanner
	// (cfg.ScanTables); ScanRows is the total rows it read.
	Scans    int64
	ScanRows int64
	// ScanStaleSum/ScanStaleMax aggregate scan staleness in epochs: how far
	// each scan's pinned released epoch trailed the then-current epoch.
	ScanStaleSum int64
	ScanStaleMax uint32

	// Crash state for recovery experiments.
	Devices []*simdisk.Device
	cfg     RunConfig
}

// ScanStaleMean returns the mean scan staleness in epochs (0 without scans).
func (r *RunResult) ScanStaleMean() float64 {
	if r.Scans == 0 {
		return 0
	}
	return float64(r.ScanStaleSum) / float64(r.Scans)
}

// AllocsPerTxn returns heap allocations per committed transaction, the
// steady-state allocation discipline the commit hot path is measured by.
func (r *RunResult) AllocsPerTxn() float64 {
	if r.Committed == 0 {
		return 0
	}
	return float64(r.Mallocs) / float64(r.Committed)
}

// maxInFlight bounds how many unresolved futures one client goroutine
// keeps before it starts waiting on the oldest — client-side flow control
// on top of the frontend queue's backpressure.
const maxInFlight = 256

// Run executes one OLTP run through a multiplexing frontend — cfg.Clients
// client goroutines submit asynchronously over a pool of cfg.Workers
// transaction workers, accounting results as durable-commit futures
// resolve — and leaves the devices crashed (durable prefixes only), ready
// for recovery. With clean=true everything is flushed before the crash,
// making recovery volume deterministic.
func Run(cfg RunConfig, clean bool) (*RunResult, error) {
	cfg = cfg.Defaults()
	w := cfg.makeWorkload()
	w.Populate(workload.DirectPopulate{})
	mgr := txn.NewManager(w.DB(), txn.Config{
		EpochInterval: cfg.EpochInterval,
		MaxRetries:    cfg.MaxRetries,
	})
	var devices []*simdisk.Device
	for i := 0; i < cfg.Devices; i++ {
		devices = append(devices, simdisk.New(fmt.Sprintf("ssd%d", i), cfg.DeviceConfig))
	}
	res := &RunResult{
		Latency:     &metrics.Histogram{},
		ExecLatency: &metrics.Histogram{},
		Devices:     devices,
		cfg:         cfg,
	}

	// The retention manager mirrors what pacman.DB.Start wires up: GC kicks
	// on every persistent-epoch advance, with a ticker sweeping stragglers.
	var ls *wal.LogSet
	snap := mvcc.NewManager(w.DB(), mvcc.Config{
		SnapshotEpoch:  mgr.SnapshotEpoch,
		PersistedEpoch: func() uint32 { return ls.PersistedEpoch() },
		Interval:       4 * cfg.EpochInterval,
	})
	lcfg := wal.Config{
		Kind:            cfg.Logging,
		BatchEpochs:     cfg.BatchEpochs,
		FlushInterval:   cfg.EpochInterval / 4,
		Sync:            !cfg.DisableSync,
		OnPepochAdvance: func(uint32) { snap.Kick() },
	}
	ls = wal.NewLogSet(mgr, lcfg, devices)
	mgr.StartEpochTicker()
	ls.Start()
	snap.Start()

	var daemon *checkpoint.Daemon
	if cfg.CheckpointEvery > 0 {
		daemon = checkpoint.NewDaemon(mgr, snap, devices, checkpoint.Config{
			Threads:      cfg.Devices,
			IncludeSlots: cfg.Logging == wal.Physical,
		}, cfg.CheckpointEvery)
		daemon.Start()
	}

	fe := frontend.New(mgr, ls, frontend.Config{
		Workers: cfg.Workers,
		Queue:   4 * cfg.Workers,
	})

	var committed, aborted atomic.Int64
	stop := make(chan struct{})

	var wg sync.WaitGroup
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	for g := 0; g < cfg.Clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(g)*7919))
			// Settle waits one future and folds its outcome into the run
			// counters; a hard error stops this client.
			stopped := false
			window := txn.NewWindow(maxInFlight, func(fut *txn.Future, mayAbort bool) {
				_, err := fut.Wait()
				switch {
				case err == nil:
					committed.Add(1)
					res.Latency.Record(fut.DurableLatency())
					res.ExecLatency.Record(fut.ExecLatency())
				case errors.Is(err, wal.ErrCrashed) || errors.Is(err, wal.ErrClosed):
					// Executed, but the run ended before release: committed
					// in memory, not durable. No latency sample.
					committed.Add(1)
				case mayAbort && errors.Is(err, proc.ErrAborted):
					aborted.Add(1)
				default:
					// OCC exhaustion or bug: record and stop this client.
					aborted.Add(1)
					stopped = true
				}
			})
			defer window.Drain()
			for !stopped {
				select {
				case <-stop:
					return
				default:
				}
				tx := w.Generate(rng)
				r := frontend.Request{P: tx.Proc, Args: tx.Args}
				if !tx.ReadOnly && cfg.AdHocPct > 0 && rng.Intn(100) < cfg.AdHocPct {
					r.Mode = txn.AdHoc
				}
				window.Add(fe.Submit(r), tx.MayAbort)
			}
		}(g)
	}

	// Concurrent snapshot scanner: back-to-back long scans over the named
	// tables through pinned views, for the whole run.
	scannerDone := make(chan struct{})
	if len(cfg.ScanTables) > 0 {
		go func() {
			defer close(scannerDone)
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := snap.Acquire()
				var rows int64
				for _, name := range cfg.ScanTables {
					t := w.DB().Table(name)
					if t == nil {
						continue
					}
					v.Scan(t, 0, ^uint64(0), func(uint64, tuple.Tuple) bool {
						rows++
						return true
					})
				}
				stale := v.Staleness(mgr.Epoch())
				v.Close()
				res.Scans++
				res.ScanRows += rows
				res.ScanStaleSum += int64(stale)
				if stale > res.ScanStaleMax {
					res.ScanStaleMax = stale
				}
			}
		}()
	} else {
		close(scannerDone)
	}

	// Throughput sampler.
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(cfg.SampleEvery)
		defer tick.Stop()
		var last int64
		for {
			select {
			case <-tick.C:
				cur := committed.Load()
				res.Trace = append(res.Trace, TraceSample{
					At:            time.Since(start),
					TPS:           float64(cur-last) / cfg.SampleEvery.Seconds(),
					Checkpointing: daemon != nil && daemon.Running(),
				})
				last = cur
			case <-stop:
				return
			}
		}
	}()

	time.Sleep(cfg.Duration)
	close(stop)
	wg.Wait()
	<-scannerDone
	res.Elapsed = time.Since(start)

	// Drain the frontend (queued work executes, the pool retires) so the
	// safe epoch covers every commit before shutdown.
	fe.Close()
	res.Steals = fe.Steals()
	if daemon != nil {
		daemon.Stop()
	}
	snap.Stop()
	res.MVCC = snap.Stats()
	if clean {
		mgr.AdvanceEpoch()
		mgr.Stop()
		ls.Close()
	} else {
		mgr.Stop()
		ls.Abort()
	}
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	res.Mallocs = int64(memAfter.Mallocs - memBefore.Mallocs)
	for _, d := range devices {
		st := d.Stats()
		res.LogBytes += st.BytesWritten
		res.Syncs += st.Syncs
	}
	res.Committed = committed.Load()
	res.Aborted = aborted.Load()
	res.TPS = float64(res.Committed) / res.Elapsed.Seconds()
	for _, d := range devices {
		d.Crash()
	}
	<-samplerDone
	return res, nil
}

// FreshRecovery builds a fresh populated instance of the run's workload and
// recovers it from the run's devices.
func (r *RunResult) FreshRecovery(scheme recovery.Scheme, threads int, mod func(*recovery.Options)) (*recovery.Result, error) {
	w := r.cfg.makeWorkload()
	w.Populate(workload.DirectPopulate{})
	opts := recovery.Options{
		Scheme:   scheme,
		DB:       w.DB(),
		Registry: w.Registry(),
		Devices:  r.Devices,
		Threads:  threads,
	}
	if scheme == recovery.CLRP {
		opts.GDG = PacmanGDG(w)
	}
	if mod != nil {
		mod(&opts)
	}
	return recovery.Run(opts)
}

// loggingProcs returns the log-generating procedures of a workload.
func loggingProcs(w workload.Workload) []*proc.Compiled {
	type hasLogging interface{ LoggingProcs() []*proc.Compiled }
	if h, ok := w.(hasLogging); ok {
		return h.LoggingProcs()
	}
	var out []*proc.Compiled
	for _, c := range w.Registry().All() {
		for _, op := range c.Ops() {
			if op.Kind.IsModification() {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// PacmanGDG builds the PACMAN dependency graph of a workload.
func PacmanGDG(w workload.Workload) *analysis.GDG {
	var ldgs []*analysis.LDG
	for _, c := range loggingProcs(w) {
		ldgs = append(ldgs, analysis.BuildLDG(c))
	}
	return analysis.BuildGDG(ldgs)
}

// ChoppingGDG builds the transaction-chopping dependency graph (Figure 18's
// baseline).
func ChoppingGDG(w workload.Workload) *analysis.GDG {
	return analysis.BuildGDG(chopping.Decompose(loggingProcs(w)))
}
