// Package recovery implements the five database recovery schemes of the
// paper's evaluation (Section 6.2):
//
//	PLR   — physical log recovery: parallel last-writer-wins replay by
//	        physical address with per-tuple latches; indexes rebuilt in
//	        parallel after replay.
//	LLR   — SiloR-style logical log recovery: parallel replay by key with
//	        per-tuple latches; versions spliced in timestamp order; indexes
//	        built inline; recovered state multi-versioned.
//	LLR-P — PACMAN-adapted logical recovery (Section 4.5): writes shuffled
//	        by (table, key) into per-thread partitions, reinstalled
//	        latch-free in commit order; single-versioned.
//	CLR   — conventional command log recovery: parallel reload, then a
//	        single thread re-executes transactions in commit order.
//	CLR-P — PACMAN: the sched.Replayer with static + dynamic analysis.
//
// Every scheme shares the same two-stage structure: checkpoint recovery
// (restore the latest consistent checkpoint, Section 2.3), then log
// recovery streamed batch-by-batch with parallel file reloading.
package recovery

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sync"
	"time"

	"pacman/internal/analysis"
	"pacman/internal/checkpoint"
	"pacman/internal/engine"
	"pacman/internal/metrics"
	"pacman/internal/proc"
	"pacman/internal/sched"
	"pacman/internal/simdisk"
	"pacman/internal/wal"
)

// Scheme identifies a recovery scheme.
type Scheme int

// The five evaluated schemes, plus Auto. Auto is the zero value: a restart
// that does not pin a scheme resolves it from the logging kind recorded in
// the devices' catalog manifest (see SchemeFor); Run itself rejects Auto —
// callers must resolve it first.
const (
	Auto Scheme = iota
	PLR
	LLR
	LLRP
	CLR
	CLRP
)

func (s Scheme) String() string {
	switch s {
	case Auto:
		return "AUTO"
	case PLR:
		return "PLR"
	case LLR:
		return "LLR"
	case LLRP:
		return "LLR-P"
	case CLR:
		return "CLR"
	case CLRP:
		return "CLR-P"
	}
	return "?"
}

// LogKind returns the logging scheme whose output this recovery scheme
// replays (wal.Off for Auto, which has no kind until resolved).
func (s Scheme) LogKind() wal.Kind {
	switch s {
	case PLR:
		return wal.Physical
	case LLR, LLRP:
		return wal.Logical
	case CLR, CLRP:
		return wal.Command
	default:
		return wal.Off
	}
}

// SchemeFor resolves Auto against a logging kind: the default (safest fully
// servable) scheme per kind — PLR for physical logs, LLR for logical logs
// (multi-versioned recovered state, unlike LLR-P), and CLR-P (PACMAN) for
// command logs. It returns Auto for wal.Off, which has nothing to replay.
func SchemeFor(kind wal.Kind) Scheme {
	switch kind {
	case wal.Physical:
		return PLR
	case wal.Logical:
		return LLR
	case wal.Command:
		return CLRP
	default:
		return Auto
	}
}

// Options configures one recovery run.
type Options struct {
	Scheme   Scheme
	DB       *engine.Database
	Registry *proc.Registry
	// GDG is required for CLR-P.
	GDG     *analysis.GDG
	Devices []*simdisk.Device
	Threads int
	// DisableLatches removes per-tuple latch acquisition in PLR/LLR — the
	// deliberately unsafe configuration of Figure 15 used to isolate the
	// latching bottleneck.
	DisableLatches bool
	// Mode selects the CLR-P parallelism level (Figures 18/19); defaults
	// to Pipelined.
	Mode sched.Mode
	// Breakdown, if set, accumulates the Figure 20 phase split (CLR-P).
	Breakdown *metrics.Breakdown
}

// Result reports the phases of a recovery run, matching the splits the
// paper's figures plot.
type Result struct {
	// Pepoch is the recovered persistent epoch.
	Pepoch uint32
	// ResumeEpoch is the first epoch a restarted instance may commit into:
	// one past the recovery high-water mark (the persistent epoch and, when
	// a checkpoint was restored, its snapshot epoch). Rebasing the epoch
	// clock here keeps every post-restart commit timestamp strictly above
	// every recovered one.
	ResumeEpoch uint32
	// CheckpointID is the id of the restored checkpoint (0 if none); a
	// restarted instance seeds its checkpoint daemon past it so new
	// checkpoints do not collide with — or sort below — recovered ones.
	CheckpointID uint32
	// CheckpointReload is the pure checkpoint file reloading time (Fig 13a).
	CheckpointReload time.Duration
	// CheckpointTotal is the full checkpoint recovery time including row
	// installation and (inline) index building (Fig 13b).
	CheckpointTotal time.Duration
	CheckpointRows  int64
	// LogReload is cumulative time spent reading and decoding log files,
	// summed across the pipeline's readers and decode workers (Fig 14a).
	LogReload time.Duration
	// ReloadWall is the reload pipeline's wall-clock duration. With the
	// pipelined reloader it is far below LogReload because devices are
	// read concurrently and decode overlaps I/O.
	ReloadWall time.Duration
	// ReloadStall is how long replay sat blocked waiting for the next
	// batch — the paper's "recovery time is bounded by load time" claim
	// holds when LogTotal ≈ ReloadStall + replay tail.
	ReloadStall time.Duration
	// ReloadOverlap is the portion of the reload pipeline's wall time
	// that ran concurrently with active replay (ReloadWall - ReloadStall).
	ReloadOverlap time.Duration
	// LogTotal is the overall log recovery duration including replay and,
	// for PLR, the deferred index rebuild (Fig 14b).
	LogTotal time.Duration
	// IndexRebuild is PLR's post-replay index reconstruction component.
	IndexRebuild time.Duration
	Entries      int
	// Filtered counts log entries skipped because a checkpoint already
	// covered them (TS <= checkpoint TS).
	Filtered  int
	LogBytes  int64
	TornFiles int
	// Tail is the log's tail-repair decision, reached by the reload pass
	// from the bytes it read: Tail.Apply repairs the devices without
	// reading a batch file again. Run never applies it; pacman.Restart
	// applies it, then releases it.
	Tail wal.TailRepair
	// Repair and RepairTime report the tail repair pacman.Restart applied
	// after replay; Run leaves them zero.
	Repair     wal.RepairStats
	RepairTime time.Duration
}

// Run performs a full database recovery. The catalog must already hold the
// workload's schema; when no checkpoint exists the caller must have
// installed the deterministic initial population beforehand. A log record
// naming a table or procedure the catalog lacks fails the run.
func Run(opts Options) (*Result, error) {
	if opts.Scheme == Auto {
		return nil, errors.New("recovery: scheme Auto must be resolved before Run (see SchemeFor)")
	}
	if len(opts.Devices) == 0 {
		return nil, errors.New("recovery: no devices to recover from")
	}
	if opts.Threads < 1 {
		opts.Threads = 1
	}
	if opts.Mode == 0 && opts.Scheme == CLRP {
		opts.Mode = sched.Pipelined
	}
	res := &Result{}

	// Persistent epoch: the durability cut.
	pe, err := wal.ReadPepoch(opts.Devices[0])
	if err != nil {
		if !errors.Is(err, simdisk.ErrNotExist) {
			return nil, err
		}
		pe = 0
	}
	res.Pepoch = pe

	// Stage 1: checkpoint recovery.
	var ckptTS engine.TS
	man, err := checkpoint.FindLatest(opts.Devices)
	if err != nil {
		return nil, err
	}
	if man != nil {
		start := time.Now()
		deferIndex := opts.Scheme == PLR
		stats, err := checkpoint.Restore(opts.DB, opts.Devices, man, opts.Threads, deferIndex)
		if err != nil {
			return nil, err
		}
		res.CheckpointTotal = time.Since(start)
		res.CheckpointReload = stats.ReloadTime
		res.CheckpointRows = stats.Rows
		res.CheckpointID = man.ID
		ckptTS = man.TS
	}

	// The resume point: past everything durable, whether it arrived through
	// the log (pepoch) or the checkpoint (whose snapshot epoch may exceed a
	// lagging pepoch).
	res.ResumeEpoch = pe + 1
	if ce := engine.EpochOf(ckptTS); ce >= res.ResumeEpoch {
		res.ResumeEpoch = ce + 1
	}

	// Stage 2: log recovery.
	start := time.Now()
	if err := replayLog(opts, pe, ckptTS, res); err != nil {
		return nil, err
	}
	// PLR rebuilds all indexes at the end of log recovery (Section 2.3).
	if opts.Scheme == PLR {
		ixStart := time.Now()
		rebuildIndexes(opts.DB, opts.Threads)
		res.IndexRebuild = time.Since(ixStart)
	}
	res.LogTotal = time.Since(start)
	if opts.Breakdown != nil {
		// The loading phase of the Figure 20 split is what replay actually
		// paid for data loading — the stall waiting on the reload pipeline —
		// not the summed read+decode work, most of which overlaps replay.
		opts.Breakdown.Add(sched.PhaseLoad, res.ReloadStall)
	}
	return res, nil
}

// feed hands reloaded batches to a replay scheme, accounting the time the
// scheme spends stalled waiting on the reload pipeline. All replay schemes
// consume from the single goroutine that calls next, so Result accumulation
// stays race-free by construction.
type feed struct {
	ch    <-chan wal.Batch
	stall metrics.DurationSum
}

// next blocks for the next batch, charging the wait to the stall account.
func (f *feed) next() (wal.Batch, bool) {
	t0 := time.Now()
	b, ok := <-f.ch
	f.stall.AddSince(t0)
	return b, ok
}

// each drains the feed, accounting replayed entries into res and applying
// fn to every batch; it stops on a feed error or the first fn error.
func (f *feed) each(res *Result, fn func([]*wal.Entry) error) error {
	for {
		batch, ok := f.next()
		if !ok {
			return nil
		}
		if batch.Err != nil {
			return batch.Err
		}
		res.Entries += len(batch.Entries)
		if err := fn(batch.Entries); err != nil {
			return err
		}
	}
}

// replayLog streams batches through the reload pipeline into the
// scheme-specific consumer: per-device readers and a shared decode pool
// reload batch N+1..N+k while the consumer replays batch N.
func replayLog(opts Options, pepoch uint32, ckptTS engine.TS, res *Result) error {
	rl, err := wal.NewReloader(opts.Devices, wal.ReloadOptions{
		Pepoch:        pepoch,
		CkptTS:        ckptTS,
		DecodeWorkers: opts.Threads,
	})
	if err != nil {
		return err
	}
	defer rl.Abort()
	f := &feed{ch: rl.Batches()}
	replayErr := dispatch(opts, f, res)
	// The pipeline's counters are atomics; on the normal path the stream
	// has closed and they are final, on the error path they are a valid
	// partial account.
	st := rl.Stats()
	res.LogReload = st.ReadTime + st.DecodeTime
	res.ReloadWall = st.Wall
	res.LogBytes = st.Bytes
	res.TornFiles = st.TornFiles
	res.Filtered = st.Filtered
	res.Tail = st.Tail
	res.ReloadStall = f.stall.Load()
	res.ReloadOverlap = max(res.ReloadWall-res.ReloadStall, 0)
	return replayErr
}

// dispatch routes the feed to the scheme's consumer.
func dispatch(opts Options, f *feed, res *Result) error {
	switch opts.Scheme {
	case PLR:
		return replayPhysical(opts, f, res)
	case LLR:
		return replayLogical(opts, f, res)
	case LLRP:
		return replayLogicalPartitioned(opts, f, res)
	case CLR:
		return replaySerialCommand(opts, f, res)
	case CLRP:
		return replayPACMAN(opts, f, res)
	default:
		return fmt.Errorf("recovery: unknown scheme %v", opts.Scheme)
	}
}

// replayPhysical: last-writer-wins by physical slot, latched, parallel
// across entries; indexes deferred.
func replayPhysical(opts Options, f *feed, res *Result) error {
	return consumeParallel(opts, f, res, func(e *wal.Entry) error {
		for _, w := range e.Writes {
			t := opts.DB.TableByID(w.TableID)
			if t == nil {
				return fmt.Errorf("recovery: unknown table %d", w.TableID)
			}
			row := t.PlaceRowAt(w.Slot, w.Key)
			if !opts.DisableLatches {
				row.Lock()
			}
			row.InstallLWW(e.TS, w.After, w.Deleted)
			if !opts.DisableLatches {
				row.Unlock()
			}
		}
		return nil
	})
}

// replayLogical: SiloR-style parallel replay by key with latches and
// timestamp-sorted version splicing; index built inline.
func replayLogical(opts Options, f *feed, res *Result) error {
	return consumeParallel(opts, f, res, func(e *wal.Entry) error {
		for _, w := range e.Writes {
			t := opts.DB.TableByID(w.TableID)
			if t == nil {
				return fmt.Errorf("recovery: unknown table %d", w.TableID)
			}
			row, _ := t.GetOrCreateRow(w.Key)
			if !opts.DisableLatches {
				row.Lock()
			}
			row.InsertVersionSorted(e.TS, w.After, w.Deleted)
			if !opts.DisableLatches {
				row.Unlock()
			}
		}
		return nil
	})
}

// errOnce records the first error across workers.
type errOnce struct {
	mu  sync.Mutex
	err error
}

func (e *errOnce) set(err error) {
	if err == nil {
		return
	}
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

func (e *errOnce) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// consumeParallel fans entries of each batch across Threads workers. Order
// within a batch is irrelevant for PLR (LWW) and LLR (sorted splicing).
func consumeParallel(opts Options, f *feed, res *Result, apply func(*wal.Entry) error) error {
	var eo errOnce
	return f.each(res, func(entries []*wal.Entry) error {
		var wg sync.WaitGroup
		n := opts.Threads
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(entries); i += n {
					eo.set(apply(entries[i]))
				}
			}(w)
		}
		wg.Wait()
		return eo.get()
	})
}

var shuffleSeed = maphash.MakeSeed()

// replayLogicalPartitioned: LLR-P. Writes are shuffled by (table, key) to
// per-thread partitions and each partition reinstalls its keys' writes in
// commit order, latch-free (Section 4.5 / Section 6.2's LLR-P).
func replayLogicalPartitioned(opts Options, f *feed, res *Result) error {
	n := opts.Threads
	return f.each(res, func(entries []*wal.Entry) error {
		// Shuffle phase: per-partition write lists in commit order.
		parts := make([][]partWrite, n)
		for _, e := range entries {
			for i := range e.Writes {
				w := &e.Writes[i]
				p := int(hashTableKey(w.TableID, w.Key) % uint64(n))
				parts[p] = append(parts[p], partWrite{ts: e.TS, w: w})
			}
		}
		// Reinstall phase: latch-free, each key owned by one partition.
		var wg sync.WaitGroup
		var eo errOnce
		for p := 0; p < n; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for _, pw := range parts[p] {
					t := opts.DB.TableByID(pw.w.TableID)
					if t == nil {
						eo.set(fmt.Errorf("recovery: unknown table %d", pw.w.TableID))
						return
					}
					row, _ := t.GetOrCreateRow(pw.w.Key)
					row.Install(pw.ts, pw.w.After, pw.w.Deleted, false)
				}
			}(p)
		}
		wg.Wait()
		return eo.get()
	})
}

type partWrite struct {
	ts engine.TS
	w  *wal.WriteImage
}

func hashTableKey(table int, key uint64) uint64 {
	var h maphash.Hash
	h.SetSeed(shuffleSeed)
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(table) >> (8 * i))
		buf[8+i] = byte(key >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum64()
}

// replaySerialCommand: CLR. One thread re-executes committed transactions
// in commit order; ad-hoc tuple entries reinstall their images.
func replaySerialCommand(opts Options, f *feed, res *Result) error {
	ex := &serialExec{db: opts.DB}
	return f.each(res, func(entries []*wal.Entry) error {
		for _, e := range entries {
			switch e.Kind {
			case wal.EntryCommand:
				c := opts.Registry.ByID(e.ProcID)
				if c == nil {
					return fmt.Errorf("recovery: unknown procedure %d", e.ProcID)
				}
				ex.ts = e.TS
				if err := c.Execute(e.Args, ex); err != nil {
					return err
				}
			case wal.EntryTuple:
				for _, w := range e.Writes {
					t := opts.DB.TableByID(w.TableID)
					if t == nil {
						return fmt.Errorf("recovery: unknown table %d", w.TableID)
					}
					row, _ := t.GetOrCreateRow(w.Key)
					row.Install(e.TS, w.After, w.Deleted, false)
				}
			}
		}
		return nil
	})
}

// replayPACMAN: CLR-P through the scheduler, batches submitted incrementally
// in epoch order as the reload pipeline delivers them.
func replayPACMAN(opts Options, f *feed, res *Result) error {
	if opts.GDG == nil {
		return fmt.Errorf("recovery: CLR-P requires a GDG")
	}
	r := sched.New(opts.GDG, opts.Registry, opts.DB, sched.Options{
		Threads:   opts.Threads,
		Mode:      opts.Mode,
		Breakdown: opts.Breakdown,
	})
	n, err := r.Consume(f.ch, &f.stall)
	res.Entries += n
	return err
}

// rebuildIndexes rebuilds every table's primary index from the slab in
// parallel slot ranges (PLR's deferred reconstruction).
func rebuildIndexes(db *engine.Database, threads int) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, threads)
	for _, t := range db.Tables() {
		n := t.NumSlots()
		per := (n + uint64(threads) - 1) / uint64(threads)
		if per == 0 {
			continue
		}
		for lo := uint64(0); lo < n; lo += per {
			hi := lo + per
			wg.Add(1)
			go func(t *engine.Table, lo, hi uint64) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				t.ReindexSlots(lo, hi)
			}(t, lo, hi)
		}
	}
	wg.Wait()
}
