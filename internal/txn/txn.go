// Package txn implements the OLTP execution path: a Silo-style optimistic
// concurrency control protocol over the storage engine, an epoch manager,
// and the per-worker commit buffers the loggers drain (the paper's
// Appendix A logging pipeline, which follows SiloR).
//
// Protocol per transaction: reads record the observed version pointer;
// writes are buffered. At commit the write rows are locked in (table, key)
// order, a commit timestamp (epoch << 32 | global sequence) is drawn, the
// read set is validated (same version still at the head, no foreign latch),
// and the new versions are installed. Conflicting transactions therefore
// serialize in timestamp order, which makes the timestamp order a correct
// replay order for command logging.
//
// Durability is epoch-based group commit: a committed transaction's record
// is buffered on its worker, tagged with its commit epoch; loggers steal
// buffers and flush an epoch once no worker can still commit into it; the
// result is released to the client only when the persistent epoch (pepoch)
// covers it. Package wal implements the loggers; this package provides the
// worker-side machinery (epoch marks and buffers).
package txn

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pacman/internal/engine"
	"pacman/internal/mvcc"
	"pacman/internal/proc"
	"pacman/internal/tuple"
)

// ErrConflict is returned when validation fails; the caller may retry.
var ErrConflict = errors.New("txn: conflict, validation failed")

// ErrDuplicateKey is returned by Insert when the key already holds a
// visible row. It aborts the transaction.
var ErrDuplicateKey = errors.New("txn: duplicate key")

// Config tunes the transaction manager.
type Config struct {
	// MultiVersion retains version chains on update (required for
	// consistent checkpointing to run concurrently with transactions).
	MultiVersion bool
	// EpochInterval is the group-commit epoch length. The paper's SiloR
	// setup uses 40ms epochs; tests use much shorter ones.
	EpochInterval time.Duration
	// MaxRetries bounds OCC retries per transaction before giving up.
	MaxRetries int
}

// DefaultConfig returns the standard configuration.
func DefaultConfig() Config {
	return Config{MultiVersion: true, EpochInterval: 10 * time.Millisecond, MaxRetries: 1000}
}

// WriteRec is one tuple modification of a committed transaction, in the
// form the loggers serialize.
type WriteRec struct {
	Table   *engine.Table
	Key     uint64
	Slot    uint64
	Deleted bool
	After   tuple.Tuple
}

// Committed describes one committed transaction for the durability pipeline.
type Committed struct {
	TS    engine.TS
	Epoch uint32
	// Proc and Args identify the stored procedure invocation (command
	// logging); Proc is nil only for direct ad-hoc writes.
	Proc  *proc.Compiled
	Args  proc.Args
	AdHoc bool
	// Dist marks a distributed transaction — a piece of a cross-shard
	// two-phase commit. Like AdHoc it forces value logging under command
	// logging, so a shard's replay never re-executes the piece (whose
	// inputs may have come from another shard).
	Dist bool
	// Writes is the transaction's write set in commit order (logical and
	// physical logging; also used for ad-hoc replay under command logging).
	Writes []WriteRec
	// Start is when the client submitted the transaction; the harness uses
	// it for end-to-end (post-fsync) latency.
	Start time.Time
	// WID is the ID of the worker that committed this transaction. The wal
	// release path shards its flushed-but-unreleased sets by it, so one
	// worker's records always land on one shard in commit order.
	WID int
	// Future, when non-nil, is the durable-commit handle the durability
	// pipeline resolves once this transaction's epoch is group-commit
	// released (or fails on crash/close).
	Future *Future
}

// Manager owns the epoch clock and global sequence and creates workers.
type Manager struct {
	db  *engine.Database
	cfg Config

	epoch atomic.Uint32
	seq   atomic.Uint32

	mu      sync.Mutex
	workers []*Worker

	stopped  atomic.Bool
	stopCh   chan struct{}
	tickerWG sync.WaitGroup

	// onAdvance, when registered, is invoked after movements that can raise
	// SafeEpoch — epoch-clock ticks, Rebase, worker heartbeats and retires —
	// but never from the per-transaction hot path. An inactive wal.LogSet
	// uses it to wake WaitForEpoch parkers (whose progress shadows the safe
	// epoch, not the pepoch thread) without busy-polling. The callback must
	// be cheap and must not block.
	onAdvance atomic.Pointer[func()]
}

// NewManager creates a manager over the catalog. The epoch clock starts at
// 1 (epoch 0 is reserved for initial population).
func NewManager(db *engine.Database, cfg Config) *Manager {
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 1000
	}
	m := &Manager{db: db, cfg: cfg, stopCh: make(chan struct{})}
	m.epoch.Store(1)
	return m
}

// DB returns the catalog.
func (m *Manager) DB() *engine.Database { return m.db }

// Config returns the manager's configuration.
func (m *Manager) Config() Config { return m.cfg }

// Epoch returns the current epoch.
func (m *Manager) Epoch() uint32 { return m.epoch.Load() }

// AdvanceEpoch bumps the epoch clock by one (tests and manual control).
func (m *Manager) AdvanceEpoch() uint32 {
	e := m.epoch.Add(1)
	m.notifyAdvance()
	return e
}

// SetOnAdvance registers the epoch-movement callback (see the onAdvance
// field). One callback per manager; a later registration replaces the
// earlier one.
func (m *Manager) SetOnAdvance(fn func()) { m.onAdvance.Store(&fn) }

func (m *Manager) notifyAdvance() {
	if fn := m.onAdvance.Load(); fn != nil {
		(*fn)()
	}
}

// Rebase moves the epoch clock forward to at least epoch; it never moves it
// backward. A restarted instance rebases past the recovery high-water mark
// before starting its ticker and workers, so every post-restart commit
// timestamp is strictly greater than every recovered one (the sequence
// component may restart from zero — TS order is epoch-major).
func (m *Manager) Rebase(epoch uint32) {
	for {
		cur := m.epoch.Load()
		if epoch <= cur {
			return
		}
		if m.epoch.CompareAndSwap(cur, epoch) {
			m.notifyAdvance()
			return
		}
	}
}

// StartEpochTicker advances the epoch every Config.EpochInterval until Stop.
func (m *Manager) StartEpochTicker() {
	m.tickerWG.Add(1)
	go func() {
		defer m.tickerWG.Done()
		t := time.NewTicker(m.cfg.EpochInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.epoch.Add(1)
				m.notifyAdvance()
			case <-m.stopCh:
				return
			}
		}
	}()
}

// Stop halts the epoch ticker.
func (m *Manager) Stop() {
	if m.stopped.CompareAndSwap(false, true) {
		close(m.stopCh)
	}
	m.tickerWG.Wait()
}

// NewWorker registers a new worker thread context.
func (m *Manager) NewWorker() *Worker {
	w := &Worker{mgr: m}
	w.scratch.mgr = m
	w.scratch.pool = mvcc.NewPool()
	w.mark.Store(uint64(m.epoch.Load()))
	m.mu.Lock()
	w.id = len(m.workers)
	m.workers = append(m.workers, w)
	m.mu.Unlock()
	return w
}

// Workers returns the registered workers.
func (m *Manager) Workers() []*Worker {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Worker(nil), m.workers...)
}

// SafeEpoch returns the highest epoch no worker can still commit into:
// min over live workers of their epoch mark, minus one. Retired workers are
// ignored; with every worker retired the whole current epoch is safe.
// Loggers flush up to this epoch.
func (m *Manager) SafeEpoch() uint32 {
	m.mu.Lock()
	ws := m.workers
	m.mu.Unlock()
	minMark := uint64(m.epoch.Load()) + 1
	for _, w := range ws {
		if mk := w.mark.Load(); mk < minMark {
			minMark = mk
		}
	}
	if minMark == 0 {
		return 0
	}
	return uint32(minMark - 1)
}

// SnapshotEpoch returns the highest epoch that is both safe (no live
// worker can still commit into it) and closed to workers created later
// (strictly below the current epoch). Checkpoints must snapshot here, not
// at SafeEpoch: with every worker retired, SafeEpoch equals the current —
// still open — epoch, and a worker created after the snapshot could commit
// into it at a timestamp the checkpoint claims to cover but never read;
// that commit would then be filtered from log replay and silently lost.
func (m *Manager) SnapshotEpoch() uint32 {
	se := m.SafeEpoch()
	// The clock starts at 1 and never reaches 0, so cur-1 is always a valid
	// closed epoch (0 holds only the pre-Start population).
	if cur := m.epoch.Load(); cur > 0 && se >= cur {
		se = cur - 1
	}
	return se
}

// Worker is one transaction-execution thread's context: its epoch mark,
// commit buffer, and reusable transaction scratch.
type Worker struct {
	mgr *Manager
	id  int

	// scratch is the worker's reusable transaction attempt: its read/write
	// set backing arrays survive across retries and transactions so the
	// steady-state execute→commit path allocates nothing for bookkeeping.
	// A Worker executes one transaction at a time (single-goroutine
	// contract), so the scratch is never aliased.
	scratch T

	// mark is the lower bound on the epoch of any future commit by this
	// worker; math.MaxUint32+? (stored as uint64) when retired.
	mark atomic.Uint64

	bufMu sync.Mutex
	buf   []*Committed
	// deferred reports whether durability is deferred to a logging
	// pipeline: futures of buffered commits are resolved by the loggers'
	// release path instead of at execution. Set by wal.LogSet.AttachWorker
	// when active loggers exist. Guarded by bufMu.
	deferred bool
	// failErr, once set, terminally fails durability for this worker:
	// every future from then on resolves with it at execution (the
	// transaction still commits in memory). Guarded by bufMu.
	failErr error
}

// ID returns the worker's index.
func (w *Worker) ID() int { return w.id }

// retiredMark marks a worker as never committing again.
const retiredMark = math.MaxUint64

// Retire declares the worker finished; loggers no longer wait on it.
func (w *Worker) Retire() {
	w.mark.Store(retiredMark)
	w.mgr.notifyAdvance()
}

// Heartbeat publishes the current epoch as the worker's mark. A worker with
// no transaction in flight must heartbeat periodically (or Retire), or it
// holds back the safe epoch and with it group commit — the same contract
// SiloR places on its workers. Calling it mid-transaction is incorrect.
func (w *Worker) Heartbeat() {
	if w.mark.Load() != retiredMark {
		w.mark.Store(uint64(w.mgr.epoch.Load()))
		w.mgr.notifyAdvance()
	}
}

// SetDurabilityDeferred declares whether the worker's commits reach
// durability through a logging pipeline. When true, futures attached to
// commits resolve at group-commit release; when false (workers without
// active loggers), they resolve at execution.
func (w *Worker) SetDurabilityDeferred(on bool) {
	w.bufMu.Lock()
	w.deferred = on
	w.bufMu.Unlock()
}

// FailDurability terminally fails the worker's durability path: every
// commit buffered so far has its future resolved with err, and every later
// execution resolves its future with err immediately (the in-memory commit
// still succeeds). The logging pipeline calls it on crash and close so no
// future waits forever.
func (w *Worker) FailDurability(err error) {
	w.bufMu.Lock()
	w.failErr = err
	buffered := w.buf
	w.buf = nil
	w.bufMu.Unlock()
	now := time.Now()
	for _, c := range buffered {
		if c.Future != nil {
			c.Future.Resolve(now, err)
		}
	}
}

// Execute runs one stored-procedure transaction with OCC retries. It
// returns the commit timestamp. The committed record (if logging needs it)
// is buffered for the loggers. adHoc marks the transaction as not
// command-loggable.
func (w *Worker) Execute(p *proc.Compiled, args proc.Args, adHoc bool, start time.Time) (engine.TS, error) {
	return w.execute(nil, p, args, adHoc, false, start)
}

// Mode picks the log record a transaction's commit produces under command
// logging: stored-procedure invocations are command-logged, everything else
// is logged as values (Section 4.5).
type Mode uint8

// Submission modes.
const (
	// Command is an ordinary stored-procedure invocation.
	Command Mode = iota
	// AdHoc marks the commit record AdHoc: tuple-level logging even under
	// command logging.
	AdHoc
	// Dist marks the commit record Dist: a piece of a cross-shard two-phase
	// commit, value-logged so a shard's replay never re-executes it.
	Dist
)

// ExecuteFuture runs one transaction like Execute and resolves f with its
// outcome: immediately on an execution error, at commit when the worker's
// durability is not deferred to a logging pipeline (or the transaction is
// read-only), and otherwise when the pipeline releases the commit's epoch.
func (w *Worker) ExecuteFuture(f *Future, p *proc.Compiled, args proc.Args, mode Mode) (engine.TS, error) {
	return w.execute(f, p, args, mode == AdHoc, mode == Dist, f.Start())
}

func (w *Worker) execute(f *Future, p *proc.Compiled, args proc.Args, adHoc, dist bool, start time.Time) (engine.TS, error) {
	fail := func(err error) (engine.TS, error) {
		if f != nil {
			f.Resolve(time.Now(), err)
		}
		return 0, err
	}
	// Publish the epoch floor for this attempt; any commit that follows
	// uses an epoch >= mark.
	w.mark.Store(uint64(w.mgr.epoch.Load()))
	// The attempt state lives in the worker's reusable scratch: retries and
	// successive transactions recycle the same read/write-set backing
	// arrays (begin resets lengths and issues a fresh write-stamp token, so
	// a retry can never observe a previous attempt's entries).
	t := &w.scratch
	for attempt := 0; ; attempt++ {
		t.begin()
		err := p.Execute(args, t)
		if err == nil {
			ts, cerr := t.commit()
			if cerr == nil {
				execAt := time.Now()
				if f != nil {
					f.MarkExecuted(ts, execAt)
				}
				attached := false
				var durErr error
				// Read-only transactions generate no log records (the paper
				// ignores them in the analysis for the same reason).
				if len(t.writes) > 0 {
					c := newCommitted()
					c.TS = ts
					c.Epoch = engine.EpochOf(ts)
					c.WID = w.id
					c.Proc = p
					c.Args = args
					c.AdHoc = adHoc
					c.Dist = dist
					c.Writes = t.appendWriteRecs(c.Writes)
					c.Start = start
					w.bufMu.Lock()
					durErr = w.failErr
					if f != nil && w.deferred && durErr == nil {
						c.Future = f
						attached = true
					}
					if durErr == nil {
						w.buf = append(w.buf, c)
					}
					w.bufMu.Unlock()
				}
				t.release()
				// The record is buffered; the mark may move up to the
				// current epoch so group commit is not held back while the
				// worker sits between transactions.
				w.mark.Store(uint64(w.mgr.epoch.Load()))
				if f != nil && !attached {
					// Nothing to log (or no pipeline, or a dead one):
					// durability is decided right here.
					f.Resolve(execAt, durErr)
				}
				return ts, nil
			}
			err = cerr
		} else {
			t.release()
		}
		if errors.Is(err, proc.ErrAborted) {
			return fail(err)
		}
		// A duplicate-key error can be a transient artifact of stale reads
		// (e.g., two NewOrders racing on one district counter: the loser
		// computed a key from an outdated read); retry like any conflict.
		// Persistent duplicates exhaust MaxRetries and surface.
		if !errors.Is(err, ErrConflict) && !errors.Is(err, ErrDuplicateKey) {
			return fail(err)
		}
		if attempt >= w.mgr.cfg.MaxRetries {
			return fail(fmt.Errorf("%w (gave up after %d attempts)", ErrConflict, attempt))
		}
	}
}

// DrainInto appends buffered commits with Epoch <= maxEpoch to dst and
// returns the extended slice. The worker's buffer is compacted in place
// (its backing array is reused; drained slots are cleared so released
// records are not pinned), so a logger draining into its own recycled
// scratch slice performs no allocation in steady state.
func (w *Worker) DrainInto(dst []*Committed, maxEpoch uint32) []*Committed {
	w.bufMu.Lock()
	defer w.bufMu.Unlock()
	if len(w.buf) == 0 {
		return dst
	}
	kept := w.buf[:0]
	for _, c := range w.buf {
		if c.Epoch <= maxEpoch {
			dst = append(dst, c)
		} else {
			kept = append(kept, c)
		}
	}
	clear(w.buf[len(kept):])
	w.buf = kept
	return dst
}

// Drain removes and returns buffered commits with Epoch <= maxEpoch.
func (w *Worker) Drain(maxEpoch uint32) []*Committed {
	return w.DrainInto(nil, maxEpoch)
}

// BufferedLen returns the number of undrained commits (tests).
func (w *Worker) BufferedLen() int {
	w.bufMu.Lock()
	defer w.bufMu.Unlock()
	return len(w.buf)
}

// stampSeq issues globally unique write-stamp tokens, one per transaction
// attempt. Tokens start at 1; 0 is the never-stamped state of a fresh row,
// so a zero token can never produce a false write-set membership match.
var stampSeq atomic.Uint64

// T is one transaction attempt. It implements proc.Executor. A T is
// recycled across retries and transactions (it is the Worker's scratch):
// begin resets the read/write sets in place, keeping their backing arrays.
type T struct {
	mgr    *Manager
	reads  []readEnt
	writes []writeEnt
	// token is this attempt's write-stamp: every row buffered for write is
	// stamped with it (engine.Row.SetWriteStamp), giving validation an O(1)
	// membership probe instead of the former per-transaction map or an
	// O(reads×writes) scan.
	token uint64
	// pool is the worker's per-thread version allocator; the commit install
	// draws retained versions from it instead of the heap. Nil (direct T
	// construction in tests) degrades to heap allocation inside Prepare.
	pool *mvcc.Pool
}

// begin resets the scratch for a fresh attempt. Entries are cleared before
// truncation so recycled slots cannot pin tuples from earlier attempts.
func (t *T) begin() {
	t.release()
	t.token = stampSeq.Add(1)
}

type readEnt struct {
	row      *engine.Row
	observed *engine.Version
}

type writeEnt struct {
	table   *engine.Table
	key     uint64
	row     *engine.Row
	data    tuple.Tuple
	deleted bool
}

func (t *T) recordRead(row *engine.Row, v *engine.Version) {
	t.reads = append(t.reads, readEnt{row: row, observed: v})
}

// pendingIdx reports whether row is already in the write set, and where.
// It scans backwards — OLTP write sets are small and the most recently
// buffered row is the likeliest repeat — which beats a map both in lookup
// cost and in allocations (none). The scan, not the row's write-stamp, is
// the ground truth: a concurrent transaction may overwrite our stamp at any
// time, and a false "not pending" here would buffer a duplicate entry and
// self-deadlock in the lock phase.
func (t *T) pendingIdx(row *engine.Row) (int, bool) {
	for i := len(t.writes) - 1; i >= 0; i-- {
		if t.writes[i].row == row {
			return i, true
		}
	}
	return 0, false
}

func (t *T) buffer(tab *engine.Table, key uint64, row *engine.Row, data tuple.Tuple, deleted bool) {
	if i, ok := t.pendingIdx(row); ok {
		t.writes[i].data = data
		t.writes[i].deleted = deleted
		return
	}
	if t.token == 0 {
		// Directly constructed T (tests); Worker.execute issues tokens in
		// begin.
		t.token = stampSeq.Add(1)
	}
	row.SetWriteStamp(t.token)
	t.writes = append(t.writes, writeEnt{table: tab, key: key, row: row, data: data, deleted: deleted})
}

// visible returns the currently visible tuple of a version head.
func visible(v *engine.Version) tuple.Tuple {
	if v == nil || v.Deleted {
		return nil
	}
	return v.Data
}

// Read implements proc.Executor.
func (t *T) Read(tab *engine.Table, key uint64) (tuple.Tuple, error) {
	row, ok := tab.GetRow(key)
	if !ok {
		return nil, nil
	}
	if i, pend := t.pendingIdx(row); pend {
		if t.writes[i].deleted {
			return nil, nil
		}
		return t.writes[i].data, nil
	}
	head := row.Head()
	t.recordRead(row, head)
	return visible(head), nil
}

// Write implements proc.Executor: merge column updates over the current
// value (upsert when absent).
func (t *T) Write(tab *engine.Table, key uint64, up []proc.ColUpdate) error {
	row, _ := tab.GetOrCreateRow(key)
	var base tuple.Tuple
	if i, pend := t.pendingIdx(row); pend {
		if !t.writes[i].deleted {
			base = t.writes[i].data
		}
	} else {
		head := row.Head()
		t.recordRead(row, head)
		base = visible(head)
	}
	next := make(tuple.Tuple, tab.Schema().NumColumns())
	copy(next, base)
	for _, u := range up {
		if u.Col < len(next) {
			next[u.Col] = u.Val
		}
	}
	t.buffer(tab, key, row, next, false)
	return nil
}

// Insert implements proc.Executor.
func (t *T) Insert(tab *engine.Table, key uint64, vals tuple.Tuple) error {
	row, _ := tab.GetOrCreateRow(key)
	if i, pend := t.pendingIdx(row); pend {
		if !t.writes[i].deleted {
			return ErrDuplicateKey
		}
	} else {
		head := row.Head()
		t.recordRead(row, head)
		if visible(head) != nil {
			return ErrDuplicateKey
		}
	}
	t.buffer(tab, key, row, vals.Clone(), false)
	return nil
}

// Delete implements proc.Executor.
func (t *T) Delete(tab *engine.Table, key uint64) error {
	row, ok := tab.GetRow(key)
	if !ok {
		return nil
	}
	if _, pend := t.pendingIdx(row); !pend {
		t.recordRead(row, row.Head())
	}
	t.buffer(tab, key, row, nil, true)
	return nil
}

// release resets the scratch after an abort (and after a successful commit
// has been converted to log form). Entries are cleared so the recycled
// backing arrays do not pin row tuples; lengths go to zero but capacity is
// kept for the next attempt.
func (t *T) release() {
	clear(t.reads)
	clear(t.writes)
	t.reads = t.reads[:0]
	t.writes = t.writes[:0]
}

// writeEntLess orders the write set by (table, key) for the lock phase.
func writeEntLess(a, b *writeEnt) bool {
	if a.table.ID() != b.table.ID() {
		return a.table.ID() < b.table.ID()
	}
	return a.key < b.key
}

// sortWrites orders t.writes by (table, key) without allocating: insertion
// sort for the small write sets OLTP transactions carry, falling back to
// slices.SortFunc (also allocation-free) past a threshold.
func (t *T) sortWrites() {
	const insertionMax = 24
	ws := t.writes
	if len(ws) <= insertionMax {
		for i := 1; i < len(ws); i++ {
			for j := i; j > 0 && writeEntLess(&ws[j], &ws[j-1]); j-- {
				ws[j], ws[j-1] = ws[j-1], ws[j]
			}
		}
		return
	}
	slices.SortFunc(ws, func(a, b writeEnt) int {
		if writeEntLess(&a, &b) {
			return -1
		}
		if writeEntLess(&b, &a) {
			return 1
		}
		return 0
	})
}

// commit runs the OCC commit protocol and returns the commit timestamp.
func (t *T) commit() (engine.TS, error) {
	// Phase 1: lock the write set in (table, key) order — deadlock-free.
	t.sortWrites()
	for i := range t.writes {
		t.writes[i].row.Lock()
	}
	unlock := func() {
		for i := range t.writes {
			t.writes[i].row.Unlock()
		}
	}

	// Phase 2: timestamp. Epoch is read inside the critical section so
	// conflicting transactions get ordered timestamps.
	ts := engine.MakeTS(t.mgr.epoch.Load(), t.mgr.seq.Add(1))

	// Phase 3: validate reads. Write-set membership is probed through the
	// row's write-stamp: a matching token proves the row is ours (tokens
	// are unique per attempt), so the common cases — unlocked rows and our
	// own locked writes — validate with two loads and no scan. A mismatched
	// token on a locked row is ambiguous (a concurrent writer of the same
	// row may have overwritten our stamp), so only then does the exact
	// write-set scan run; it is the ground truth and keeps contended
	// workloads free of spurious aborts.
	inWrites := func(row *engine.Row) bool {
		for i := range t.writes {
			if t.writes[i].row == row {
				return true
			}
		}
		return false
	}
	for i := range t.reads {
		r := &t.reads[i]
		if r.row.Head() != r.observed {
			unlock()
			t.release()
			return 0, ErrConflict
		}
		if r.row.WriteStamp() != t.token && r.row.Locked() && !inWrites(r.row) {
			unlock()
			t.release()
			return 0, ErrConflict
		}
	}

	// Phase 4: install and unlock. Versions come from the worker's pool so
	// multi-version retention adds no per-write heap allocation.
	retain := t.mgr.cfg.MultiVersion
	for i := range t.writes {
		w := &t.writes[i]
		w.row.InstallPrepared(t.pool.Prepare(ts, w.data, w.deleted), retain)
	}
	unlock()
	return ts, nil
}

// appendWriteRecs appends the installed writes in log form to dst (the
// commit record's recycled Writes buffer) and returns the extended slice.
func (t *T) appendWriteRecs(dst []WriteRec) []WriteRec {
	for i := range t.writes {
		w := &t.writes[i]
		dst = append(dst, WriteRec{
			Table:   w.table,
			Key:     w.key,
			Slot:    w.row.Slot,
			Deleted: w.deleted,
			After:   w.data,
		})
	}
	return dst
}
