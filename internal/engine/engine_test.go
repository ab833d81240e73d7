package engine

import (
	"sync"
	"testing"

	"pacman/internal/tuple"
)

func testSchema(name string) *tuple.Schema {
	return tuple.MustSchema(name, tuple.Col("id", tuple.KindInt), tuple.Col("val", tuple.KindInt))
}

func TestDatabaseCatalog(t *testing.T) {
	db := NewDatabase()
	a := db.MustAddTable(testSchema("a"))
	b := db.MustAddTable(testSchema("b"))
	if a.ID() != 0 || b.ID() != 1 {
		t.Errorf("ids = %d, %d", a.ID(), b.ID())
	}
	if db.Table("a") != a || db.Table("b") != b || db.Table("c") != nil {
		t.Error("Table lookup broken")
	}
	if db.TableByID(0) != a || db.TableByID(2) != nil || db.TableByID(-1) != nil {
		t.Error("TableByID broken")
	}
	if len(db.Tables()) != 2 {
		t.Error("Tables() broken")
	}
	if _, err := db.AddTable(testSchema("a")); err == nil {
		t.Error("duplicate table accepted")
	}
	if a.Name() != "a" || a.Schema().Table() != "a" {
		t.Error("table metadata broken")
	}
}

func TestRowCreateAndInstall(t *testing.T) {
	db := NewDatabase()
	tb := db.MustAddTable(testSchema("t"))
	r, created := tb.GetOrCreateRow(5)
	if !created {
		t.Fatal("row should be new")
	}
	if r.LatestData() != nil {
		t.Error("fresh row should have no visible data")
	}
	r2, created := tb.GetOrCreateRow(5)
	if created || r2 != r {
		t.Error("second GetOrCreateRow must return the same row")
	}
	r.Install(MakeTS(1, 0), tuple.Tuple{tuple.I(5), tuple.I(100)}, false, true)
	if d := r.LatestData(); d == nil || d[1].Int() != 100 {
		t.Errorf("latest = %v", d)
	}
	if got, ok := tb.GetRow(5); !ok || got != r {
		t.Error("GetRow broken")
	}
	if _, ok := tb.GetRow(6); ok {
		t.Error("GetRow returned missing key")
	}
}

func TestVersionChainAndReadAt(t *testing.T) {
	db := NewDatabase()
	tb := db.MustAddTable(testSchema("t"))
	r, _ := tb.GetOrCreateRow(1)
	r.Install(MakeTS(1, 0), tuple.Tuple{tuple.I(1), tuple.I(10)}, false, true)
	r.Install(MakeTS(2, 0), tuple.Tuple{tuple.I(1), tuple.I(20)}, false, true)
	r.Install(MakeTS(3, 0), tuple.Tuple{tuple.I(1), tuple.I(30)}, false, true)
	if len(chainTSs(r)) != 3 {
		t.Errorf("chain length = %d", len(chainTSs(r)))
	}
	cases := []struct {
		ts   TS
		want int64 // -1 means invisible
	}{
		{MakeTS(0, 5), -1},
		{MakeTS(1, 0), 10},
		{MakeTS(1, 99), 10},
		{MakeTS(2, 0), 20},
		{MakeTS(9, 0), 30},
	}
	for _, c := range cases {
		d := r.ReadAt(c.ts)
		if c.want == -1 {
			if d != nil {
				t.Errorf("ReadAt(%d) = %v, want invisible", c.ts, d)
			}
			continue
		}
		if d == nil || d[1].Int() != c.want {
			t.Errorf("ReadAt(%d) = %v, want val %d", c.ts, d, c.want)
		}
	}
}

func TestTombstone(t *testing.T) {
	db := NewDatabase()
	tb := db.MustAddTable(testSchema("t"))
	r, _ := tb.GetOrCreateRow(1)
	r.Install(MakeTS(1, 0), tuple.Tuple{tuple.I(1), tuple.I(10)}, false, true)
	r.Install(MakeTS(2, 0), nil, true, true)
	if r.LatestData() != nil {
		t.Error("deleted row still visible")
	}
	if d := r.ReadAt(MakeTS(1, 50)); d == nil || d[1].Int() != 10 {
		t.Error("old version invisible after delete")
	}
	if r.ReadAt(MakeTS(3, 0)) != nil {
		t.Error("tombstone not respected at later TS")
	}
	// Re-insert over tombstone.
	r.Install(MakeTS(4, 0), tuple.Tuple{tuple.I(1), tuple.I(40)}, false, true)
	if d := r.LatestData(); d == nil || d[1].Int() != 40 {
		t.Error("reinsert over tombstone broken")
	}
}

func TestSingleVersionInstall(t *testing.T) {
	db := NewDatabase()
	tb := db.MustAddTable(testSchema("t"))
	r, _ := tb.GetOrCreateRow(1)
	r.Install(MakeTS(1, 0), tuple.Tuple{tuple.I(1), tuple.I(10)}, false, false)
	r.Install(MakeTS(2, 0), tuple.Tuple{tuple.I(1), tuple.I(20)}, false, false)
	if len(chainTSs(r)) != 1 {
		t.Errorf("single-version install kept %d versions", len(chainTSs(r)))
	}
	if r.LatestData()[1].Int() != 20 {
		t.Error("latest value wrong")
	}
}

func TestInstallLWW(t *testing.T) {
	db := NewDatabase()
	tb := db.MustAddTable(testSchema("t"))
	r, _ := tb.GetOrCreateRow(1)
	if !r.InstallLWW(MakeTS(5, 0), tuple.Tuple{tuple.I(1), tuple.I(50)}, false) {
		t.Error("first LWW install refused")
	}
	// Older write must lose.
	if r.InstallLWW(MakeTS(3, 0), tuple.Tuple{tuple.I(1), tuple.I(30)}, false) {
		t.Error("older LWW install accepted")
	}
	if r.LatestData()[1].Int() != 50 {
		t.Error("LWW kept wrong value")
	}
	// Equal TS must lose too (idempotent replay).
	if r.InstallLWW(MakeTS(5, 0), tuple.Tuple{tuple.I(1), tuple.I(99)}, false) {
		t.Error("equal-TS LWW install accepted")
	}
	if !r.InstallLWW(MakeTS(6, 0), nil, true) {
		t.Error("newer LWW delete refused")
	}
	if r.LatestData() != nil {
		t.Error("LWW delete not applied")
	}
}

func TestTSHelpers(t *testing.T) {
	ts := MakeTS(7, 42)
	if EpochOf(ts) != 7 {
		t.Errorf("EpochOf = %d", EpochOf(ts))
	}
	if MakeTS(2, 0) <= MakeTS(1, 0xFFFFFFFF) {
		t.Error("epoch must dominate sequence in TS order")
	}
}

func TestSlabSlotsAndScan(t *testing.T) {
	db := NewDatabase()
	tb := db.MustAddTable(testSchema("t"))
	const n = 10_000 // crosses segment boundaries
	for i := uint64(0); i < n; i++ {
		r, created := tb.GetOrCreateRow(i)
		if !created {
			t.Fatalf("row %d not new", i)
		}
		r.Install(MakeTS(1, uint32(i)), tuple.Tuple{tuple.I(int64(i)), tuple.I(0)}, false, true)
	}
	if tb.NumSlots() != n {
		t.Fatalf("slots = %d", tb.NumSlots())
	}
	// Slots are dense and RowBySlot agrees with the index.
	seen := 0
	tb.ScanSlots(0, n, func(r *Row) {
		seen++
		if got := tb.RowBySlot(r.Slot); got != r {
			t.Fatalf("RowBySlot(%d) mismatch", r.Slot)
		}
	})
	if seen != n {
		t.Fatalf("scan saw %d rows", seen)
	}
	// Partial scan.
	seen = 0
	tb.ScanSlots(100, 200, func(*Row) { seen++ })
	if seen != 100 {
		t.Fatalf("partial scan saw %d", seen)
	}
	// Out-of-range scan clamps.
	seen = 0
	tb.ScanSlots(n-5, n+100, func(*Row) { seen++ })
	if seen != 5 {
		t.Fatalf("clamped scan saw %d", seen)
	}
	if tb.RowBySlot(n+1) != nil {
		t.Error("RowBySlot past high-water mark should be nil")
	}
}

func TestPlaceRowAt(t *testing.T) {
	db := NewDatabase()
	tb := db.MustAddTable(testSchema("t"))
	r := tb.PlaceRowAt(5000, 77)
	if r.Slot != 5000 || r.Key != 77 {
		t.Errorf("placed row = %+v", r)
	}
	if tb.NumSlots() != 5001 {
		t.Errorf("slots = %d", tb.NumSlots())
	}
	// Placing again at the same slot returns the existing row.
	r2 := tb.PlaceRowAt(5000, 77)
	if r2 != r {
		t.Error("second PlaceRowAt returned a different row")
	}
	if tb.RowBySlot(4999) != nil {
		t.Error("hole should be nil")
	}
}

func TestReindexSlots(t *testing.T) {
	db := NewDatabase()
	tb := db.MustAddTable(testSchema("t"))
	for i := uint64(0); i < 1000; i++ {
		tb.PlaceRowAt(i, i*2)
	}
	if tb.idx.Len() != 0 {
		t.Fatal("index should start empty")
	}
	// Rebuild in two halves as parallel recovery would.
	var wg sync.WaitGroup
	for _, rng := range [][2]uint64{{0, 500}, {500, 1000}} {
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			tb.ReindexSlots(lo, hi)
		}(rng[0], rng[1])
	}
	wg.Wait()
	if tb.idx.Len() != 1000 {
		t.Fatalf("index len = %d", tb.idx.Len())
	}
	for i := uint64(0); i < 1000; i++ {
		if r, ok := tb.GetRow(i * 2); !ok || r.Slot != i {
			t.Fatalf("key %d: row %v, ok %v", i*2, r, ok)
		}
	}
}

func TestScanIndexOrder(t *testing.T) {
	db := NewDatabase()
	tb := db.MustAddTable(testSchema("t"))
	for _, k := range []uint64{5, 1, 9, 3} {
		r, _ := tb.GetOrCreateRow(k)
		r.Install(MakeTS(1, 0), tuple.Tuple{tuple.I(int64(k)), tuple.I(0)}, false, true)
	}
	var got []uint64
	tb.ScanIndex(0, 100, func(r *Row) bool {
		got = append(got, r.Key)
		return true
	})
	want := []uint64{1, 3, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan order = %v", got)
		}
	}
}

func TestConcurrentRowCreation(t *testing.T) {
	db := NewDatabase()
	tb := db.MustAddTable(testSchema("t"))
	const workers = 8
	rows := make([][]*Row, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rows[w] = make([]*Row, 1000)
			for i := 0; i < 1000; i++ {
				r, _ := tb.GetOrCreateRow(uint64(i))
				rows[w][i] = r
			}
		}(w)
	}
	wg.Wait()
	// All workers must agree on row identity per key.
	for i := 0; i < 1000; i++ {
		for w := 1; w < workers; w++ {
			if rows[w][i] != rows[0][i] {
				t.Fatalf("key %d: distinct rows created", i)
			}
		}
	}
	if tb.NumSlots() != 1000 {
		// Slots can exceed keys only if allocRow raced outside GetOrInsert,
		// which the B+tree latch prevents.
		t.Fatalf("slots = %d, want 1000", tb.NumSlots())
	}
}

func TestSpinLatch(t *testing.T) {
	var s Spin
	s.Lock()
	if s.TryLock() {
		t.Fatal("TryLock succeeded while held")
	}
	s.Unlock()
	if !s.TryLock() {
		t.Fatal("TryLock failed while free")
	}
	s.Unlock()

	// Mutual exclusion under contention.
	var counter int
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10_000; i++ {
				s.Lock()
				counter++
				s.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != 80_000 {
		t.Fatalf("counter = %d; latch is not mutually exclusive", counter)
	}
}

func TestConcurrentLatchedInstalls(t *testing.T) {
	db := NewDatabase()
	tb := db.MustAddTable(testSchema("t"))
	r, _ := tb.GetOrCreateRow(1)
	var next atomic64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				ts := next.inc()
				r.Lock()
				r.InstallLWW(ts, tuple.Tuple{tuple.I(1), tuple.I(int64(ts))}, false)
				r.Unlock()
			}
		}()
	}
	wg.Wait()
	// The final head must carry the maximum timestamp.
	if got := r.Head().BeginTS; got != 40_000 {
		t.Fatalf("final TS = %d, want 40000", got)
	}
}

type atomic64 struct {
	mu sync.Mutex
	v  uint64
}

func (a *atomic64) inc() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.v++
	return a.v
}
