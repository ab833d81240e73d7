package mvcc_test

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pacman/internal/engine"
	"pacman/internal/mvcc"
	"pacman/internal/tuple"
)

func newTable(t *testing.T) (*engine.Database, *engine.Table) {
	t.Helper()
	db := engine.NewDatabase()
	tab := db.MustAddTable(tuple.MustSchema("T",
		tuple.Col("k", tuple.KindInt), tuple.Col("v", tuple.KindInt)))
	return db, tab
}

// chainLen returns a row's version-chain length: truncating below the
// oldest possible timestamp keeps every version.
func chainLen(r *engine.Row) int {
	n, _ := r.TruncateVersions(0)
	return n
}

func tupOf(n int64) tuple.Tuple { return tuple.Tuple{tuple.I(n), tuple.I(n)} }

// install writes (key -> val) at the given epoch, retained.
func install(tab *engine.Table, key uint64, epoch uint32, val int64) {
	r, _ := tab.GetOrCreateRow(key)
	r.Lock()
	r.Install(engine.MakeTS(epoch, 1), tupOf(val), false, true)
	r.Unlock()
}

// frontiers is a controllable epoch source pair.
type frontiers struct{ snap, pers atomic.Uint32 }

func (f *frontiers) config() mvcc.Config {
	return mvcc.Config{
		SnapshotEpoch:  f.snap.Load,
		PersistedEpoch: f.pers.Load,
	}
}

func TestViewVisibilityAndStaleness(t *testing.T) {
	db, tab := newTable(t)
	for e := uint32(1); e <= 5; e++ {
		install(tab, 1, e, int64(e)*10)
	}
	install(tab, 2, 4, 999) // inserted at epoch 4

	var f frontiers
	f.snap.Store(3)
	f.pers.Store(2)
	m := mvcc.NewManager(db, f.config())

	v := m.Acquire() // released frontier = min(3, 2) = 2
	defer v.Close()
	if v.Epoch() != 2 {
		t.Fatalf("view epoch = %d, want 2", v.Epoch())
	}
	if d := v.Get(tab, 1); d[1].Int() != 20 {
		t.Fatalf("Get at epoch 2 = %v", d)
	}
	if d := v.Get(tab, 2); d != nil {
		t.Fatalf("row inserted after the cut visible: %v", d)
	}
	var keys []uint64
	v.Scan(tab, 0, ^uint64(0), func(k uint64, _ tuple.Tuple) bool {
		keys = append(keys, k)
		return true
	})
	if len(keys) != 1 || keys[0] != 1 {
		t.Fatalf("scan keys = %v", keys)
	}
	if s := v.Staleness(7); s != 5 {
		t.Fatalf("staleness = %d", s)
	}
	if s := v.Staleness(1); s != 0 {
		t.Fatalf("staleness below cut = %d", s)
	}

	// AcquireFresh ignores the persisted clamp.
	fv := m.AcquireFresh()
	defer fv.Close()
	if fv.Epoch() != 3 {
		t.Fatalf("fresh view epoch = %d, want 3", fv.Epoch())
	}
}

func TestAcquireAtBounds(t *testing.T) {
	db, tab := newTable(t)
	install(tab, 1, 1, 1)
	var f frontiers
	f.snap.Store(5)
	f.pers.Store(5)
	m := mvcc.NewManager(db, f.config())

	if _, err := m.AcquireAt(6); !errors.Is(err, mvcc.ErrFutureEpoch) {
		t.Fatalf("future epoch err = %v", err)
	}
	v, err := m.AcquireAt(3)
	if err != nil {
		t.Fatal(err)
	}
	v.Close()

	// Advance the frontier and collect: the floor passes 3.
	f.snap.Store(9)
	f.pers.Store(9)
	m.Collect()
	if _, err := m.AcquireAt(3); !errors.Is(err, mvcc.ErrReclaimed) {
		t.Fatalf("reclaimed epoch err = %v", err)
	}
	if m.Floor() != 9 {
		t.Fatalf("floor = %d", m.Floor())
	}
}

func TestCollectTruncatesAndPinsHold(t *testing.T) {
	db, tab := newTable(t)
	for e := uint32(1); e <= 10; e++ {
		install(tab, 1, e, int64(e))
	}
	r, _ := tab.GetRow(1)
	if n := chainLen(r); n != 10 {
		t.Fatalf("chain = %d", n)
	}

	var f frontiers
	f.snap.Store(10)
	f.pers.Store(10)
	m := mvcc.NewManager(db, f.config())

	// A view pinned at epoch 3 holds the floor there.
	pinned, err := m.AcquireAt(3)
	if err != nil {
		t.Fatal(err)
	}
	m.Collect()
	if d := pinned.Get(tab, 1); d[1].Int() != 3 {
		t.Fatalf("pinned view read = %v", d)
	}
	st := m.Stats()
	if st.Floor != 3 {
		t.Fatalf("floor with pin = %d", st.Floor)
	}
	if st.Reclaimed != 2 { // versions at epochs 1 and 2
		t.Fatalf("reclaimed with pin = %d", st.Reclaimed)
	}

	// Releasing the pin lets collection pass to the frontier.
	pinned.Close()
	m.Collect()
	st = m.Stats()
	if st.Floor != 10 {
		t.Fatalf("floor = %d", st.Floor)
	}
	if n := chainLen(r); n != 1 {
		t.Fatalf("chain after full collect = %d", n)
	}
	if st.Reclaimed != 9 || st.MaxChain != 1 || st.Passes != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// The cut at the frontier still reads correctly.
	v := m.Acquire()
	defer v.Close()
	if d := v.Get(tab, 1); d[1].Int() != 10 {
		t.Fatalf("read after collect = %v", d)
	}
}

// TestCollectSkipsLatchedRows: a row whose latch is held (a committing
// writer) is skipped, not waited on, and a later pass reclaims it.
func TestCollectSkipsLatchedRows(t *testing.T) {
	db, tab := newTable(t)
	install(tab, 1, 1, 1)
	install(tab, 1, 2, 2)
	var f frontiers
	f.snap.Store(5)
	f.pers.Store(5)
	m := mvcc.NewManager(db, f.config())

	r, _ := tab.GetRow(1)
	r.Lock()
	m.Collect() // must not deadlock
	r.Unlock()
	if n := chainLen(r); n != 2 {
		t.Fatalf("latched row was truncated: chain = %d", n)
	}
	m.Collect()
	if n := chainLen(r); n != 1 {
		t.Fatalf("re-sweep missed the row: chain = %d", n)
	}
}

// TestConcurrentWritersReadersCollector races pooled installs, snapshot
// reads, and the collector — the whole subsystem under -race.
func TestConcurrentWritersReadersCollector(t *testing.T) {
	db, tab := newTable(t)
	const keys = 16
	for k := uint64(0); k < keys; k++ {
		install(tab, k, 1, 0)
	}
	var epoch atomic.Uint32
	epoch.Store(2)
	var f frontiers
	f.snap.Store(1)
	f.pers.Store(1)
	m := mvcc.NewManager(db, f.config())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var installs atomic.Int64
	// Writers: pooled installs at the open epoch.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pool := mvcc.NewPool()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(i) % keys
				r, _ := tab.GetRow(k)
				r.Lock()
				ts := engine.MakeTS(epoch.Load(), uint32(i&0xffff)+1)
				r.InstallPrepared(pool.Prepare(ts, tupOf(i), false), true)
				r.Unlock()
				installs.Add(1)
			}
		}(g)
	}
	// Readers: pinned views over released epochs.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := m.Acquire()
				v.Scan(tab, 0, ^uint64(0), func(_ uint64, d tuple.Tuple) bool {
					_ = d[1].Int()
					return true
				})
				v.Close()
			}
		}()
	}
	// Clock: advance the open epoch and the released frontier behind it,
	// pacing on writer progress so each epoch actually accumulates history.
	for e := uint32(2); e < 60; e++ {
		target := installs.Load() + 50
		for installs.Load() < target {
			runtime.Gosched()
		}
		epoch.Store(e + 1)
		f.snap.Store(e)
		f.pers.Store(e - 1)
		m.Collect()
	}
	close(stop)
	wg.Wait()

	// One final pass on the quiesced table: chains must be fully bounded.
	f.snap.Store(61)
	f.pers.Store(61)
	m.Collect()
	st := m.Stats()
	if st.MaxChain != 1 {
		t.Fatalf("max chain after final collect = %d", st.MaxChain)
	}
	if st.Reclaimed == 0 {
		t.Fatal("collector reclaimed nothing")
	}
}

func TestPoolChunking(t *testing.T) {
	p := mvcc.NewPool()
	seen := map[*engine.Version]bool{}
	for i := 0; i < 600; i++ {
		v := p.Prepare(engine.TS(i), tupOf(int64(i)), i%2 == 0)
		if seen[v] {
			t.Fatalf("pool handed out version %d twice", i)
		}
		seen[v] = true
		if v.BeginTS != engine.TS(i) || v.Data[0].Int() != int64(i) || v.Deleted != (i%2 == 0) {
			t.Fatalf("version %d fields wrong: %+v", i, v)
		}
	}
	// Nil pool degrades to heap allocation.
	var nilPool *mvcc.Pool
	v := nilPool.Prepare(7, tupOf(7), false)
	if v == nil || v.BeginTS != 7 {
		t.Fatalf("nil pool Prepare = %+v", v)
	}
}

// TestManagerStartStop: lifecycle sanity — kicks and ticker passes race
// with acquire/close under -race.
func TestManagerStartStop(t *testing.T) {
	db, tab := newTable(t)
	install(tab, 1, 1, 1)
	var f frontiers
	f.snap.Store(1)
	f.pers.Store(1)
	cfg := f.config()
	m := mvcc.NewManager(db, cfg)
	m.Start()
	for i := 0; i < 100; i++ {
		f.snap.Store(uint32(i + 1))
		f.pers.Store(uint32(i + 1))
		m.Kick()
		v := m.Acquire()
		v.Close()
	}
	m.Stop()
	m.Stop() // idempotent
}
