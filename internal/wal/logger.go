package wal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pacman/internal/frame"
	"pacman/internal/health"
	"pacman/internal/simdisk"
	"pacman/internal/txn"
)

// ErrCrashed resolves durable-commit futures whose transaction executed but
// whose epoch was never covered by the persistent epoch when the instance
// crashed: recovery will not replay it, so it must not report durable.
var ErrCrashed = errors.New("wal: crashed before durable")

// ErrClosed resolves futures still unreleased when the logging pipeline is
// closed (e.g. a worker was never retired, so its epoch never became safe).
var ErrClosed = errors.New("wal: closed before durable")

// DefaultBatchEpochs is the epochs-per-batch-file geometry used when none
// is configured — the paper "sets the batch size to 100 epochs" (Appendix
// A.1). The catalog manifest records the effective value through this same
// constant, so the geometry a restart rounds its resume epoch to can never
// drift from the geometry the loggers actually wrote with.
const DefaultBatchEpochs = 100

// Config tunes the logging subsystem.
type Config struct {
	Kind Kind
	// BatchEpochs is the number of epochs per log batch file (default
	// DefaultBatchEpochs).
	BatchEpochs uint32
	// FlushInterval is the logger poll period.
	FlushInterval time.Duration
	// Sync issues an fsync per flush (group commit). Disabling it models
	// the Table 3 "w/o fsync" configuration.
	Sync bool
	// ResumeEpoch is the restart floor: the epoch up to which the devices
	// are already durable from a previous incarnation (recovery's resume
	// point minus one). The persistent epoch and per-logger persisted
	// counters start here instead of 0, so PersistedEpoch never regresses
	// below what recovery reported and post-restart group commit releases
	// only on epochs this incarnation actually flushed.
	ResumeEpoch uint32
	// OnPepochAdvance, if set, is called from the pepoch thread each time
	// the persistent epoch advances, with the new value. The multi-version
	// garbage collector keys off it: versions strictly older than the
	// persistent-epoch frontier can never again be needed by recovery or by
	// snapshot views pinned at released epochs. The callback runs on the
	// pepoch goroutine and must not block.
	OnPepochAdvance func(pe uint32)
}

// BatchFileName names the batch file of a logger.
func BatchFileName(loggerID int, batch uint32) string {
	return fmt.Sprintf("log-%03d-%08d", loggerID, batch)
}

// PepochFileName is the persistent-epoch marker file.
const PepochFileName = "pepoch.log"

// LogSet is the logging subsystem: one logger goroutine per device, plus
// the pepoch thread tracking the slowest logger (Appendix A.1).
type LogSet struct {
	mgr     *txn.Manager
	cfg     Config
	loggers []*Logger

	pepoch    atomic.Uint32
	pepochDev *simdisk.Device
	// peAppends counts marker records appended since the last compaction;
	// every pepochCompactEvery appends the marker is rewritten to a single
	// record (crash-safe sidecar + rename), bounding both the file and the
	// scan recovery pays on it.
	peAppends int

	// pending holds the synced records loggers hand over after each flush,
	// in flush order per logger, until a release pass covers their epoch.
	// relBuf is take's reused output buffer: passes are serialized (the
	// pepoch goroutine while it runs, the shutdown path after it is
	// joined), and each pass is done with the returned slice before the
	// next, so one buffer suffices.
	pendMu  sync.Mutex
	pending []*txn.Committed
	relBuf  []*txn.Committed

	stopCh  chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup
}

// Logger is one logging thread bound to one device, draining a subset of
// workers.
type Logger struct {
	id  int
	set *LogSet
	dev *simdisk.Device

	workers []*txn.Worker
	wmu     sync.Mutex

	persisted atomic.Uint32

	// dead latches after a failed flush sync (the device power-failed):
	// records the logger buffered after that point were never durable, so
	// persisted must never advance again — an empty later flush jumping
	// persisted past unsynced records would release them as durable and
	// recovery would not replay them.
	dead bool

	// batch state
	curBatch  uint32
	curWriter *simdisk.Writer

	// recs and encBuf are flush scratch, reused across flushes (flush runs
	// on the single logger goroutine): drained commit records and the
	// encode buffer one flush's records are framed into.
	recs   []*txn.Committed
	encBuf []byte

	// Sync-latency telemetry for the gray-failure watchdog: syncStart is
	// the unix-nano start of the sync currently blocking the logger
	// goroutine (0 when none), so a hung device shows up as an ever-growing
	// in-flight age even though the sync never returns to be measured.
	syncStart atomic.Int64
	syncEWMA  health.EWMA
	lastSync  atomic.Int64
	// lastSyncAt is the unix-nano completion time of the most recent sync:
	// the EWMA is evidence of slowness only while a sample is fresh (see
	// ewmaEvidenceWindow).
	lastSyncAt atomic.Int64
	syncs      atomic.Uint64
}

// NewLogSet builds a logging subsystem with one logger per device. With
// Kind == Off it is inert (no goroutines, PersistedEpoch tracks SafeEpoch).
func NewLogSet(mgr *txn.Manager, cfg Config, devices []*simdisk.Device) *LogSet {
	if cfg.BatchEpochs == 0 {
		cfg.BatchEpochs = DefaultBatchEpochs
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = time.Millisecond
	}
	s := &LogSet{mgr: mgr, cfg: cfg, stopCh: make(chan struct{})}
	if cfg.Kind == Off || len(devices) == 0 {
		// Inactive: PersistedEpoch shadows the safe epoch.
		return s
	}
	s.pepoch.Store(cfg.ResumeEpoch)
	s.pepochDev = devices[0]
	for i, d := range devices {
		lg := &Logger{id: i, set: s, dev: d}
		lg.persisted.Store(cfg.ResumeEpoch)
		s.loggers = append(s.loggers, lg)
	}
	return s
}

// Active reports whether the log set actually logs (Kind != Off and at
// least one device).
func (s *LogSet) Active() bool { return len(s.loggers) > 0 }

// AttachWorker assigns a worker to a logger (round-robin) and defers the
// worker's durability to the release path, so futures of its commits
// resolve at group commit instead of at execution. Workers may be attached
// before or after Start, but always before they execute their first
// transaction. With logging off this is a no-op: durability is immediate.
func (s *LogSet) AttachWorker(w *txn.Worker) {
	if len(s.loggers) == 0 {
		return
	}
	w.SetDurabilityDeferred(true)
	lg := s.loggers[w.ID()%len(s.loggers)]
	lg.wmu.Lock()
	lg.workers = append(lg.workers, w)
	lg.wmu.Unlock()
}

// Start launches the logger and pepoch goroutines.
func (s *LogSet) Start() {
	for _, lg := range s.loggers {
		s.wg.Add(1)
		go func(lg *Logger) {
			defer s.wg.Done()
			t := time.NewTicker(s.cfg.FlushInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					lg.flush(s.mgr.SafeEpoch())
				case <-s.stopCh:
					return
				}
			}
		}(lg)
	}
	if len(s.loggers) > 0 {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			t := time.NewTicker(s.cfg.FlushInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					s.updatePepoch()
				case <-s.stopCh:
					return
				}
			}
		}()
	}
}

// stop signals the logger and pepoch goroutines and waits for them to
// exit; once it returns, the caller owns every flush and release pass.
func (s *LogSet) stop() {
	if s.stopped.CompareAndSwap(false, true) {
		close(s.stopCh)
	}
	s.wg.Wait()
}

// Close flushes everything outstanding (workers should be retired first so
// the safe epoch covers all buffered commits) and stops the goroutines.
func (s *LogSet) Close() {
	// With the pepoch goroutine stopped, no pass is in flight: run the
	// final flush and release pass here.
	s.stop()
	safe := s.mgr.SafeEpoch()
	for _, lg := range s.loggers {
		lg.flush(safe)
		lg.closeBatch()
	}
	s.updatePepoch()
	// Anything still unreleased (commits of never-retired workers whose
	// epoch never became safe) will not be flushed by anyone: fail their
	// futures so no caller waits forever.
	s.failOutstanding(ErrClosed)
}

// Abort stops the logger and pepoch goroutines without any final flush —
// the logging pipeline's half of a simulated power failure. Crash tests
// call Abort, then Device.Crash, so nothing writes "after" the failure.
func (s *LogSet) Abort() {
	s.stop()
	// Every commit the pipeline still owned dies with it: resolve its
	// future with ErrCrashed so clients observe the lost tail instead of
	// waiting forever, and fail each worker's durability so transactions
	// executed after the crash resolve immediately too.
	s.failOutstanding(ErrCrashed)
}

// failOutstanding resolves every future still owned by the logging
// pipeline — buffered on an attached worker, or flushed but not yet covered
// by the persistent epoch — with err. It runs after the logger goroutines
// have stopped, so no concurrent release can race it; a future that was
// already released is left untouched (resolve-once).
func (s *LogSet) failOutstanding(err error) {
	for _, lg := range s.loggers {
		lg.wmu.Lock()
		workers := append([]*txn.Worker(nil), lg.workers...)
		lg.wmu.Unlock()
		for _, w := range workers {
			w.FailDurability(err)
		}
	}
	s.releasePass(^uint32(0), err)
}

// PersistedEpoch returns the current persistent epoch (pepoch): every
// transaction with a commit epoch at or below it is durable on all loggers.
func (s *LogSet) PersistedEpoch() uint32 {
	if len(s.loggers) == 0 {
		// Logging disabled: everything "persists" immediately.
		return s.mgr.SafeEpoch()
	}
	return s.pepoch.Load()
}

// updatePepoch recomputes the minimum persisted epoch, records it durably
// in pepoch.log when (and only when) it advanced, and releases covered
// transactions. The release scan runs every pass, advance or not: a flush
// can land records whose epochs an earlier pass already covered (the safe
// epoch reached them between flushes), and those must not sit pending until
// the next advance — or worse, be failed with ErrClosed by a shutdown that
// never saw pepoch move again.
func (s *LogSet) updatePepoch() {
	if len(s.loggers) == 0 {
		return
	}
	pe := s.loggers[0].persisted.Load()
	for _, lg := range s.loggers[1:] {
		if p := lg.persisted.Load(); p < pe {
			pe = p
		}
	}
	if pe > s.pepoch.Load() {
		// The marker is an append-only sequence of frames, each holding one
		// pe; readers take the last valid one, so a crash mid-append tears
		// only the new record and the previous durable pepoch survives. (A
		// create-truncate-rewrite here would have a window where a crash
		// destroys the marker entirely, un-acknowledging every durable
		// commit.) Every pepochCompactEvery appends the file is compacted
		// back to one record through Device.Replace, so it never grows
		// without bound.
		if s.peAppends >= pepochCompactEvery {
			if err := s.pepochDev.Replace(PepochFileName, appendPepochRecord(nil, pe)); err != nil {
				return
			}
			s.peAppends = 0
		} else {
			w := s.pepochDev.Append(PepochFileName)
			var buf [frame.HeaderSize + 4]byte
			if _, err := w.Write(appendPepochRecord(buf[:0], pe)); err != nil {
				return
			}
			if err := w.Sync(); err != nil {
				// The advance never became durable: recovery would read the
				// old pepoch, so releasing against the new one would
				// acknowledge commits recovery will not replay. Keep
				// releasing at the old durable cut.
				return
			}
			s.peAppends++
		}
		s.pepoch.Store(pe)
		if s.cfg.OnPepochAdvance != nil {
			s.cfg.OnPepochAdvance(pe)
		}
	}
	// Release covered transactions. The scan runs every pass, advance or
	// not (see the function comment).
	s.releasePass(pe, nil)
}

// releasePass resolves the futures of every pending record covered by pe
// with err (nil: durable), all with one timestamp, then recycles the
// records: a resolved record has no remaining owner.
func (s *LogSet) releasePass(pe uint32, err error) {
	released := s.take(pe)
	if len(released) == 0 {
		return
	}
	now := time.Now()
	for _, c := range released {
		if c.Future != nil {
			c.Future.Resolve(now, err)
		}
	}
	txn.RecycleCommitted(released)
}

// take removes and returns pending records with epoch <= pe, compacting the
// kept records in place (vacated slots cleared so released records are not
// pinned).
func (s *LogSet) take(pe uint32) []*txn.Committed {
	s.pendMu.Lock()
	defer s.pendMu.Unlock()
	out := s.relBuf[:0]
	kept := s.pending[:0]
	for _, c := range s.pending {
		if c.Epoch <= pe {
			out = append(out, c)
		} else {
			kept = append(kept, c)
		}
	}
	clear(s.pending[len(kept):])
	s.pending = kept
	s.relBuf = out
	return out
}

// SyncStats reports one logger device's sync-latency telemetry.
type SyncStats struct {
	Device string        `json:"device"`
	EWMA   time.Duration `json:"ewma"`
	Last   time.Duration `json:"last"`
	// Inflight is how long the currently blocked sync has been running
	// (zero when no sync is in flight) — the signal that exposes a hung
	// device whose sync never returns.
	Inflight time.Duration `json:"inflight,omitempty"`
	Syncs    uint64        `json:"syncs"`
}

// SyncStats returns per-device sync telemetry, in logger order (empty with
// logging off).
func (s *LogSet) SyncStats() []SyncStats {
	now := time.Now()
	out := make([]SyncStats, 0, len(s.loggers))
	for _, lg := range s.loggers {
		st := SyncStats{
			Device: lg.dev.Name(),
			EWMA:   lg.syncEWMA.Load(),
			Last:   time.Duration(lg.lastSync.Load()),
			Syncs:  lg.syncs.Load(),
		}
		if at := lg.syncStart.Load(); at != 0 {
			st.Inflight = now.Sub(time.Unix(0, at))
		}
		out = append(out, st)
	}
	return out
}

// ewmaEvidenceWindow bounds how long a completed sync's latency remains
// evidence that the device is slow. An idle device produces no samples, so
// without an expiry a breached average would hold the sync signal above
// budget forever — and a brownout that sheds all traffic (hence stops
// producing syncs) could never heal. Past the window the EWMA term is
// ignored: no sync in flight and none completed recently means the device
// is idle, not slow, and an idle device delays no one. The in-flight term
// is unaffected — a hung sync stays visible for as long as it hangs.
const ewmaEvidenceWindow = 250 * time.Millisecond

// SyncProbe returns a watchdog signal: the worst, over all devices, of the
// smoothed sync latency (while fresh — see ewmaEvidenceWindow) and the age
// of any sync currently blocked. The in-flight term is what catches a
// permanently hung sync — a latency that never completes produces no
// sample, but its age grows every sweep.
func (s *LogSet) SyncProbe() func(now time.Time) time.Duration {
	return func(now time.Time) time.Duration {
		var worst time.Duration
		for _, lg := range s.loggers {
			if at := lg.lastSyncAt.Load(); at != 0 && now.Sub(time.Unix(0, at)) <= ewmaEvidenceWindow {
				if v := lg.syncEWMA.Load(); v > worst {
					worst = v
				}
			}
			if at := lg.syncStart.Load(); at != 0 {
				if v := now.Sub(time.Unix(0, at)); v > worst {
					worst = v
				}
			}
		}
		return worst
	}
}

// pepochCompactEvery bounds the append-only marker: after this many
// appended records the marker is rewritten to a single record (6 KiB of
// appends between compactions), so neither the file nor recovery's scan of
// it grows with uptime.
const pepochCompactEvery = 512

// appendPepochRecord appends one marker record: a frame whose payload is
// the 4-byte epoch.
func appendPepochRecord(buf []byte, pe uint32) []byte {
	var p [4]byte
	binary.LittleEndian.PutUint32(p[:], pe)
	return frame.Append(buf, p[:])
}

// scanPepochRecords walks the marker's records and returns the byte length
// of the valid prefix and the last valid record's epoch. ReadPepoch and
// tail repair both read the marker through it.
func scanPepochRecords(b []byte) (valid int, pe uint32) {
	valid, _ = frame.Walk(b, func(p []byte) error {
		if len(p) != 4 {
			return errBadPepochRecord
		}
		pe = binary.LittleEndian.Uint32(p)
		return nil
	})
	return valid, pe
}

var errBadPepochRecord = errors.New("wal: pepoch record is not 4 bytes")

// ReadPepoch recovers the persistent epoch marker from a device: the last
// valid record of the append-only marker file. A torn or corrupt tail —
// a crash mid-append — falls back to the previous record; an existing but
// empty file (created, never synced) reads as 0, matching a crash before
// the first durable advance.
func ReadPepoch(dev *simdisk.Device) (uint32, error) {
	r, err := dev.Open(PepochFileName)
	if err != nil {
		return 0, err
	}
	b, err := r.ReadAll()
	if err != nil {
		return 0, err
	}
	_, pe := scanPepochRecords(b)
	return pe, nil
}

// flush drains the logger's workers up to safeEpoch, appends the records to
// the right batch files (in epoch order), and syncs once. The whole pass is
// allocation-free in steady state: records drain into the logger's recycled
// scratch slice, batch grouping is a stable in-place sort (no per-flush
// map), and every record frames itself directly into one reused encode
// buffer.
func (lg *Logger) flush(safeEpoch uint32) {
	lg.wmu.Lock()
	workers := lg.workers
	lg.wmu.Unlock()

	recs := lg.recs[:0]
	for _, w := range workers {
		recs = w.DrainInto(recs, safeEpoch)
	}
	lg.recs = recs
	if len(recs) == 0 {
		// Even with nothing to write, the epoch may have advanced — but
		// never past a failed sync: a dead logger's durability is frozen.
		if !lg.dead && safeEpoch > lg.persisted.Load() {
			lg.persisted.Store(safeEpoch)
		}
		return
	}
	// Group records by batch: a stable sort on batch id keeps the former
	// map-of-slices' drain order within each batch, and a flush almost
	// always lands in a single batch, making this one comparison pass.
	batchEpochs := lg.set.cfg.BatchEpochs
	slices.SortStableFunc(recs, func(a, b *txn.Committed) int {
		return cmp.Compare(a.Epoch/batchEpochs, b.Epoch/batchEpochs)
	})
	for lo := 0; lo < len(recs); {
		b := recs[lo].Epoch / batchEpochs
		hi := lo + 1
		for hi < len(recs) && recs[hi].Epoch/batchEpochs == b {
			hi++
		}
		w := lg.writerFor(b)
		buf := lg.encBuf[:0]
		for _, c := range recs[lo:hi] {
			buf = encodeRecord(buf, lg.set.cfg.Kind, c)
		}
		lg.encBuf = buf
		w.Write(buf)
		lo = hi
	}
	if lg.set.cfg.Sync && lg.curWriter != nil {
		if err := lg.timedSync(lg.curWriter); err != nil {
			// Power failure (or injected fault): nothing this flush wrote
			// is durable, and the records must NOT reach pending — a
			// record flushed into an epoch the pepoch already covers would
			// be released (acknowledged durable) by the very next release
			// scan even though its bytes die with the crash. Fail the
			// futures as crashed right here; persisted stays put, now and
			// forever (see dead).
			lg.dead = true
			now := time.Now()
			for _, c := range recs {
				if c.Future != nil {
					c.Future.Resolve(now, ErrCrashed)
				}
			}
			txn.RecycleCommitted(recs)
			return
		}
	}
	if !lg.dead && safeEpoch > lg.persisted.Load() {
		lg.persisted.Store(safeEpoch)
	}

	// The records now belong to the release path: a pass may resolve and
	// recycle them as soon as the lock drops.
	s := lg.set
	s.pendMu.Lock()
	s.pending = append(s.pending, recs...)
	s.pendMu.Unlock()
}

// writerFor returns the writer of the given batch, rotating files as the
// batch id advances.
func (lg *Logger) writerFor(batch uint32) *simdisk.Writer {
	if lg.curWriter != nil && lg.curBatch == batch {
		return lg.curWriter
	}
	lg.closeBatch()
	lg.curBatch = batch
	lg.curWriter = lg.dev.Create(BatchFileName(lg.id, batch))
	hdr := appendFileHeader(nil, lg.set.cfg.Kind, lg.id, batch)
	lg.curWriter.Write(hdr)
	return lg.curWriter
}

func (lg *Logger) closeBatch() {
	if lg.curWriter != nil && lg.set.cfg.Sync {
		lg.timedSync(lg.curWriter)
	}
	lg.curWriter = nil
}

// timedSync wraps a device sync with the latency telemetry the watchdog
// samples: the in-flight marker is set BEFORE the sync so a hung device is
// observable while the call is still blocked.
func (lg *Logger) timedSync(w *simdisk.Writer) error {
	start := time.Now()
	lg.syncStart.Store(start.UnixNano())
	err := w.Sync()
	d := time.Since(start)
	lg.syncStart.Store(0)
	lg.syncEWMA.Observe(d)
	lg.lastSync.Store(int64(d))
	lg.lastSyncAt.Store(time.Now().UnixNano())
	lg.syncs.Add(1)
	return err
}
