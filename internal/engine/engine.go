// Package engine implements the main-memory storage engine: tables of
// latched rows with newest-first version chains, indexed by a concurrent
// B+tree, plus the append-only slot slab that gives every row a stable
// physical address (the target of physical logging).
//
// The engine is deliberately policy-free: it provides version installation
// primitives with and without latching and with and without version
// retention, and the transaction layer (internal/txn) and the recovery
// schemes (internal/recovery) choose which to use. This mirrors the paper's
// claim that PACMAN "is orthogonal to data layouts ... and concurrency
// control schemes" — every scheme in the evaluation drives this same
// storage engine through different primitives.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pacman/internal/index"
	"pacman/internal/tuple"
)

// TS is a commit timestamp: the high 32 bits hold the epoch, the low 32 bits
// a per-epoch sequence number. TS order equals commit order.
type TS = uint64

// MakeTS composes a timestamp from an epoch and sequence number.
func MakeTS(epoch uint32, seq uint32) TS {
	return TS(epoch)<<32 | TS(seq)
}

// EpochOf extracts the epoch component of a timestamp.
func EpochOf(ts TS) uint32 { return uint32(ts >> 32) }

// EpochCeil rounds epoch up to the next multiple of quantum (quantum <= 1
// leaves it unchanged). A restarted instance aligns its resumed epoch clock
// to a log-batch boundary with it, so post-restart flushes open fresh batch
// files strictly after the reloaded tail. TS order is epoch-major, so the
// skipped epochs cost nothing but a gap in the clock.
func EpochCeil(epoch, quantum uint32) uint32 {
	if quantum <= 1 {
		return epoch
	}
	return (epoch + quantum - 1) / quantum * quantum
}

// Version is one version of a row. Versions are immutable once installed
// except for the chain link; the chain is newest-first. The link is atomic
// because garbage collection truncates chain tails while readers traverse
// them lock-free (see Row.TruncateVersions).
type Version struct {
	BeginTS TS
	Deleted bool // tombstone: the row was deleted at BeginTS
	Data    tuple.Tuple
	next    atomic.Pointer[Version] // older version, or nil
}

// Row is a logical row: a stable identity carrying a spin latch and the head
// of its version chain. head == nil means the row has been allocated (e.g.,
// by an in-flight insert) but holds no visible version yet.
type Row struct {
	Key  uint64
	Slot uint64 // physical address within the table's slab
	l    Spin
	head atomic.Pointer[Version]
	// stamp is the write-stamp scratch word the transaction layer uses for
	// allocation-free write-set membership (see Row.SetWriteStamp).
	stamp atomic.Uint64
}

// Lock acquires the row latch.
func (r *Row) Lock() { r.l.Lock() }

// TryLock attempts to acquire the row latch without blocking.
func (r *Row) TryLock() bool { return r.l.TryLock() }

// Unlock releases the row latch.
func (r *Row) Unlock() { r.l.Unlock() }

// Locked reports whether the row latch is currently held.
func (r *Row) Locked() bool { return r.l.Locked() }

// Head returns the newest version, or nil.
func (r *Row) Head() *Version { return r.head.Load() }

// SetWriteStamp publishes a transaction-attempt token on the row. The
// transaction layer stamps each row it buffers a write for, then tests
// membership during read validation with a single load instead of a
// per-read scan of the write set (or a per-transaction map).
//
// The stamp is advisory, never authoritative: tokens are globally unique
// per transaction attempt, so a matching stamp proves the row is in the
// attempt's write set, while a mismatch proves nothing (a concurrent
// writer of the same row may have overwritten the stamp — callers must
// treat that as "possibly foreign" and fall back to a conservative check).
func (r *Row) SetWriteStamp(token uint64) { r.stamp.Store(token) }

// WriteStamp returns the row's current write-stamp token.
func (r *Row) WriteStamp() uint64 { return r.stamp.Load() }

// Install pushes a new version with the given timestamp on top of the
// current chain. Callers must guarantee exclusive access. If retain is
// false the previous chain is discarded (single-version behavior).
func (r *Row) Install(ts TS, data tuple.Tuple, deleted bool, retain bool) {
	v := &Version{BeginTS: ts, Deleted: deleted, Data: data}
	r.InstallPrepared(v, retain)
}

// InstallPrepared pushes a caller-allocated version on top of the current
// chain; the multi-version layer's per-worker pools prepare versions this
// way so the commit hot path stays allocation-free. The version's link is
// overwritten. Callers must guarantee exclusive access.
func (r *Row) InstallPrepared(v *Version, retain bool) {
	if retain {
		v.next.Store(r.head.Load())
	} else {
		v.next.Store(nil)
	}
	r.head.Store(v)
}

// TruncateVersions cuts the chain below the newest version whose BeginTS is
// <= floorTS: every read at a timestamp >= floorTS is unaffected, and
// strictly-older history becomes unreachable for the garbage collector's
// accounting. It returns the surviving chain length and the number of
// versions pruned. Callers must guarantee exclusive access (hold the row
// latch); concurrent lock-free readers at timestamps >= floorTS remain
// correct because they never traverse past the boundary version.
func (r *Row) TruncateVersions(floorTS TS) (kept, pruned int) {
	v := r.head.Load()
	if v == nil {
		return 0, 0
	}
	kept = 1
	for v.BeginTS > floorTS {
		n := v.next.Load()
		if n == nil {
			return kept, 0
		}
		v = n
		kept++
	}
	// v is the boundary: the newest version visible at floorTS. Unlink and
	// count the strictly-older tail.
	tail := v.next.Load()
	if tail == nil {
		return kept, 0
	}
	v.next.Store(nil)
	for t := tail; t != nil; t = t.next.Load() {
		pruned++
	}
	return kept, pruned
}

// InstallLWW installs (ts, data) only if ts is newer than the current head
// (the last-writer-wins rule a.k.a. Thomas write rule used by physical log
// recovery). It reports whether the install happened. Callers must
// guarantee exclusive access.
func (r *Row) InstallLWW(ts TS, data tuple.Tuple, deleted bool) bool {
	if h := r.head.Load(); h != nil && h.BeginTS >= ts {
		return false
	}
	r.head.Store(&Version{BeginTS: ts, Deleted: deleted, Data: data})
	return true
}

// InsertVersionSorted splices a version into the chain at its
// timestamp-ordered position (chains are newest-first). Logical log
// recovery uses it: recovery threads may restore versions of one tuple out
// of timestamp order, so installation must sort. Duplicate timestamps are
// ignored (idempotent replay). Callers must guarantee exclusive access
// (hold the row latch).
func (r *Row) InsertVersionSorted(ts TS, data tuple.Tuple, deleted bool) {
	v := &Version{BeginTS: ts, Deleted: deleted, Data: data}
	h := r.head.Load()
	if h == nil || h.BeginTS < ts {
		v.next.Store(h)
		r.head.Store(v)
		return
	}
	cur := h
	for {
		if cur.BeginTS == ts {
			return
		}
		next := cur.next.Load()
		if next == nil || next.BeginTS < ts {
			v.next.Store(next)
			cur.next.Store(v)
			return
		}
		cur = next
	}
}

// LatestData returns the newest visible tuple, or nil if the row is absent
// or deleted.
func (r *Row) LatestData() tuple.Tuple {
	h := r.head.Load()
	if h == nil || h.Deleted {
		return nil
	}
	return h.Data
}

// ReadAt returns the tuple visible at timestamp ts (the newest version with
// BeginTS <= ts), or nil if none is visible or the visible version is a
// tombstone. Multi-version checkpointing reads historic snapshots this way.
func (r *Row) ReadAt(ts TS) tuple.Tuple {
	for v := r.head.Load(); v != nil; v = v.next.Load() {
		if v.BeginTS <= ts {
			if v.Deleted {
				return nil
			}
			return v.Data
		}
	}
	return nil
}

// segBits sizes slab segments at 4096 rows; segments are never reallocated,
// so row pointers and slots stay stable for the lifetime of the table.
const (
	segBits = 12
	segSize = 1 << segBits
	segMask = segSize - 1
)

type segment [segSize]atomic.Pointer[Row]

// Table is one table: schema, B+tree primary index, and the slot slab.
type Table struct {
	id     int
	name   string
	schema *tuple.Schema

	idx *index.BTree[*Row]

	growMu sync.Mutex
	segs   atomic.Pointer[[]*segment]
	slots  atomic.Uint64 // high-water mark of allocated slots
}

func newTable(id int, schema *tuple.Schema) *Table {
	t := &Table{id: id, name: schema.Table(), schema: schema, idx: index.NewBTree[*Row]()}
	empty := []*segment{}
	t.segs.Store(&empty)
	return t
}

// ID returns the table's catalog identifier.
func (t *Table) ID() int { return t.id }

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *tuple.Schema { return t.schema }

// NumSlots returns the slab high-water mark (allocated slots, including rows
// with no visible version).
func (t *Table) NumSlots() uint64 { return t.slots.Load() }

// GetRow returns the row for key, if the key has ever been inserted.
func (t *Table) GetRow(key uint64) (*Row, bool) {
	return t.idx.Get(key)
}

// GetOrCreateRow returns the row for key, allocating a slab slot and index
// entry if absent. The bool reports whether the row was newly created. The
// new row has no visible version until the caller installs one.
func (t *Table) GetOrCreateRow(key uint64) (*Row, bool) {
	return t.idx.GetOrInsert(key, func() *Row {
		return t.allocRow(key)
	})
}

func (t *Table) allocRow(key uint64) *Row {
	slot := t.slots.Add(1) - 1
	r := &Row{Key: key, Slot: slot}
	t.cell(slot).Store(r)
	return r
}

// PlaceRowAt installs a row at a specific slot, used by physical-log
// recovery to rebuild the slab at recorded addresses. If a row already
// occupies the slot it is returned instead (concurrent replayers of the
// same address race benignly).
func (t *Table) PlaceRowAt(slot uint64, key uint64) *Row {
	for {
		hw := t.slots.Load()
		if hw > slot {
			break
		}
		if t.slots.CompareAndSwap(hw, slot+1) {
			break
		}
	}
	c := t.cell(slot)
	r := &Row{Key: key, Slot: slot}
	if c.CompareAndSwap(nil, r) {
		return r
	}
	return c.Load()
}

// cell returns the slab cell for slot, growing the segment directory as
// needed.
func (t *Table) cell(slot uint64) *atomic.Pointer[Row] {
	segIdx := int(slot >> segBits)
	segs := *t.segs.Load()
	if segIdx >= len(segs) {
		t.growMu.Lock()
		segs = *t.segs.Load()
		for segIdx >= len(segs) {
			segs = append(segs, &segment{})
		}
		t.segs.Store(&segs)
		t.growMu.Unlock()
	}
	return &segs[segIdx][slot&segMask]
}

// RowBySlot returns the row at a physical slot, or nil if unallocated.
func (t *Table) RowBySlot(slot uint64) *Row {
	segs := *t.segs.Load()
	segIdx := int(slot >> segBits)
	if segIdx >= len(segs) {
		return nil
	}
	return segs[segIdx][slot&segMask].Load()
}

// ScanSlots calls fn for every allocated row with slot in [lo, hi).
// Checkpointing and index rebuilding partition the slab this way for
// parallel processing.
func (t *Table) ScanSlots(lo, hi uint64, fn func(*Row)) {
	if max := t.slots.Load(); hi > max {
		hi = max
	}
	for s := lo; s < hi; s++ {
		if r := t.RowBySlot(s); r != nil {
			fn(r)
		}
	}
}

// ScanIndex iterates rows in key order via the primary index.
func (t *Table) ScanIndex(lo, hi uint64, fn func(*Row) bool) {
	t.idx.Scan(lo, hi, func(_ uint64, r *Row) bool { return fn(r) })
}

// ReindexSlots inserts the keys of all allocated rows with slot in [lo, hi)
// into the primary index. Physical-log recovery rebuilds indexes with this
// after the slab is restored.
func (t *Table) ReindexSlots(lo, hi uint64) {
	t.ScanSlots(lo, hi, func(r *Row) {
		t.idx.Insert(r.Key, r)
	})
}

// InsertIndex registers an existing row under key in the primary index;
// restore paths that place rows by slot use it to build the index inline.
func (t *Table) InsertIndex(key uint64, r *Row) {
	t.idx.Insert(key, r)
}

// Database is the catalog: an ordered set of tables. Commit timestamps are
// owned by the transaction layer, not the catalog.
type Database struct {
	mu     sync.RWMutex
	tables []*Table
	byName map[string]*Table
}

// NewDatabase returns an empty catalog.
func NewDatabase() *Database {
	return &Database{byName: make(map[string]*Table)}
}

// AddTable creates a table with the given schema. Table IDs are assigned in
// creation order, so a recovery run that recreates the catalog in the same
// order sees identical IDs.
func (db *Database) AddTable(schema *tuple.Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.byName[schema.Table()]; dup {
		return nil, fmt.Errorf("engine: table %q already exists", schema.Table())
	}
	t := newTable(len(db.tables), schema)
	db.tables = append(db.tables, t)
	db.byName[t.name] = t
	return t, nil
}

// MustAddTable is AddTable that panics on error; for static workload setup.
func (db *Database) MustAddTable(schema *tuple.Schema) *Table {
	t, err := db.AddTable(schema)
	if err != nil {
		panic(err)
	}
	return t
}

// Table returns the named table, or nil.
func (db *Database) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.byName[name]
}

// TableByID returns the table with the given catalog ID, or nil.
func (db *Database) TableByID(id int) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if id < 0 || id >= len(db.tables) {
		return nil
	}
	return db.tables[id]
}

// Tables returns all tables in catalog order.
func (db *Database) Tables() []*Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]*Table(nil), db.tables...)
}
