package checkpoint

import (
	"testing"
	"time"

	"pacman/internal/engine"
	"pacman/internal/mvcc"
	"pacman/internal/proc"
	"pacman/internal/simdisk"
	"pacman/internal/tuple"
	"pacman/internal/txn"
	"pacman/internal/workload"
)

func bankWithData(t testing.TB, accounts int) (*workload.Bank, *txn.Manager) {
	t.Helper()
	b := workload.NewBank(accounts)
	b.Populate(workload.DirectPopulate{})
	m := txn.NewManager(b.DB(), txn.DefaultConfig())
	return b, m
}

// indexLen counts the keys in a table's primary index.
func indexLen(tab *engine.Table) int {
	n := 0
	tab.ScanIndex(0, ^uint64(0), func(*engine.Row) bool { n++; return true })
	return n
}

func devs(n int) []*simdisk.Device {
	var out []*simdisk.Device
	for i := 0; i < n; i++ {
		out = append(out, simdisk.New("d", simdisk.Unlimited()))
	}
	return out
}

// tableTotals sums the Value column of a table for state comparison.
func tableTotal(t testing.TB, tab *engine.Table) int64 {
	t.Helper()
	var total int64
	tab.ScanSlots(0, tab.NumSlots(), func(r *engine.Row) {
		if d := r.LatestData(); d != nil {
			total += d[1].Int()
		}
	})
	return total
}

func TestWriteAndRestoreRoundTrip(t *testing.T) {
	b, _ := bankWithData(t, 100)
	dd := devs(2)
	ts := engine.MakeTS(0, ^uint32(0))
	m, err := Write(b.DB(), dd, Config{Threads: 2}, 1, ts)
	if err != nil {
		t.Fatal(err)
	}
	// 100 accounts x3 tables + 50 nations.
	if m.Rows != 350 {
		t.Fatalf("rows = %d", m.Rows)
	}
	// Restore into a fresh catalog.
	b2 := workload.NewBank(100) // same schema, unpopulated
	found, err := FindLatest(dd)
	if err != nil || found == nil || found.ID != 1 {
		t.Fatalf("FindLatest = %+v, %v", found, err)
	}
	stats, err := Restore(b2.DB(), dd, found, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows != 350 {
		t.Fatalf("restored rows = %d", stats.Rows)
	}
	for _, name := range []string{"Family", "Current", "Saving", "Stats"} {
		want := tableTotal(t, b.DB().Table(name))
		got := tableTotal(t, b2.DB().Table(name))
		if got != want {
			t.Errorf("table %s: restored total %d, want %d", name, got, want)
		}
		// Inline index rebuilt.
		if indexLen(b2.DB().Table(name)) != indexLen(b.DB().Table(name)) {
			t.Errorf("table %s: index len %d vs %d", name,
				indexLen(b2.DB().Table(name)), indexLen(b.DB().Table(name)))
		}
	}
}

func TestSnapshotConsistency(t *testing.T) {
	// Writes after the snapshot TS must not appear in the checkpoint.
	b, m := bankWithData(t, 10)
	w := m.NewWorker()
	snapTS := engine.MakeTS(1, ^uint32(0))
	// Commit one deposit in epoch 2 (after the snapshot).
	m.AdvanceEpoch()
	if _, err := w.Execute(b.Deposit,
		proc.Args{proc.A(tuple.I(1)), proc.A(tuple.I(1000)), proc.A(tuple.I(1))}, false); err != nil {
		t.Fatal(err)
	}
	dd := devs(1)
	if _, err := Write(b.DB(), dd, Config{Threads: 1}, 1, snapTS); err != nil {
		t.Fatal(err)
	}
	b2 := workload.NewBank(10)
	man, _ := FindLatest(dd)
	if _, err := Restore(b2.DB(), dd, man, 1, false); err != nil {
		t.Fatal(err)
	}
	r, ok := b2.DB().Table("Current").GetRow(1)
	if !ok {
		t.Fatal("row missing")
	}
	if got := r.LatestData()[1].Int(); got != 10 {
		t.Errorf("snapshot leaked post-snapshot write: %d, want 10", got)
	}
}

func TestPhysicalCheckpointDeferredIndex(t *testing.T) {
	b, _ := bankWithData(t, 50)
	dd := devs(1)
	ts := engine.MakeTS(0, ^uint32(0))
	if _, err := Write(b.DB(), dd, Config{Threads: 2, IncludeSlots: true}, 1, ts); err != nil {
		t.Fatal(err)
	}
	man, _ := FindLatest(dd)
	if !man.IncludeSlots {
		t.Fatal("manifest lost IncludeSlots")
	}
	b2 := workload.NewBank(50)
	if _, err := Restore(b2.DB(), dd, man, 2, true); err != nil {
		t.Fatal(err)
	}
	cur := b2.DB().Table("Current")
	// Index deferred: empty until reindexed.
	if indexLen(cur) != 0 {
		t.Fatalf("index not deferred: len = %d", indexLen(cur))
	}
	// Rows placed at original slots.
	orig := b.DB().Table("Current")
	found := 0
	orig.ScanSlots(0, orig.NumSlots(), func(r *engine.Row) {
		r2 := cur.RowBySlot(r.Slot)
		if r2 == nil || r2.Key != r.Key {
			t.Fatalf("slot %d not faithfully restored", r.Slot)
		}
		found++
	})
	if found != 50 {
		t.Fatalf("slots checked = %d", found)
	}
	// Reindex completes the restore.
	cur.ReindexSlots(0, cur.NumSlots())
	if indexLen(cur) != 50 {
		t.Fatalf("reindexed len = %d", indexLen(cur))
	}
	// Deferred restore without slots must fail.
	dd2 := devs(1)
	if _, err := Write(b.DB(), dd2, Config{Threads: 1}, 2, ts); err != nil {
		t.Fatal(err)
	}
	man2, _ := FindLatest(dd2)
	if _, err := Restore(workload.NewBank(1).DB(), dd2, man2, 1, true); err == nil {
		t.Error("deferred restore without slots accepted")
	}
}

func TestFindLatestPicksNewest(t *testing.T) {
	b, _ := bankWithData(t, 10)
	dd := devs(1)
	ts := engine.MakeTS(0, ^uint32(0))
	for id := uint32(1); id <= 3; id++ {
		if _, err := Write(b.DB(), dd, Config{Threads: 1}, id, ts); err != nil {
			t.Fatal(err)
		}
	}
	m, err := FindLatest(dd)
	if err != nil || m == nil || m.ID != 3 {
		t.Fatalf("FindLatest = %+v, %v", m, err)
	}
	// No checkpoints: nil.
	if m, _ := FindLatest(devs(1)); m != nil {
		t.Error("FindLatest on empty device should be nil")
	}
}

func TestIncompleteCheckpointIgnored(t *testing.T) {
	b, _ := bankWithData(t, 10)
	dd := devs(1)
	ts := engine.MakeTS(0, ^uint32(0))
	if _, err := Write(b.DB(), dd, Config{Threads: 1}, 1, ts); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-checkpoint 2: shard written, manifest missing.
	w := dd[0].Create(ManifestName(2))
	w.Write([]byte{1, 2, 3}) // truncated garbage, never synced fully
	m, err := FindLatest(dd)
	if err != nil || m == nil || m.ID != 1 {
		t.Fatalf("FindLatest = %+v, %v; want checkpoint 1", m, err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{ID: 7, TS: engine.MakeTS(3, 9), IncludeSlots: true, Rows: 1234,
		Tables: map[int]int{0: 2, 1: 4, 3: 1}}
	got, err := decodeManifest(encodeManifest(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != m.ID || got.TS != m.TS || !got.IncludeSlots || got.Rows != 1234 {
		t.Errorf("round trip = %+v", got)
	}
	if len(got.Tables) != 3 || got.Tables[1] != 4 {
		t.Errorf("tables = %v", got.Tables)
	}
	if _, err := decodeManifest([]byte{1, 2}); err == nil {
		t.Error("short manifest accepted")
	}
}

func TestDaemon(t *testing.T) {
	b, m := bankWithData(t, 20)
	_ = b
	dd := devs(1)
	views := mvcc.NewManager(m.DB(), mvcc.Config{SnapshotEpoch: m.SnapshotEpoch})
	d := NewDaemon(m, views, dd, Config{Threads: 1}, 5*time.Millisecond)
	d.Start()
	time.Sleep(25 * time.Millisecond)
	d.Stop()
	last := d.lastDone.Load()
	if last == 0 {
		t.Fatal("daemon took no checkpoints")
	}
	found, _ := FindLatest(dd)
	if found == nil || found.ID != last {
		t.Errorf("latest on disk = %+v, daemon's last completed id = %d", found, last)
	}
	d.Stop() // idempotent
}

func TestTruncateLogs(t *testing.T) {
	dd := devs(1)
	// Batches of 10 epochs: batch 0 covers 0-9, batch 1 covers 10-19.
	for b := uint32(0); b < 3; b++ {
		w := dd[0].Create(BatchLike(int(b)))
		w.Write([]byte("x"))
		w.Sync()
	}
	removed := TruncateLogs(dd, 19, 10)
	if removed != 2 {
		t.Fatalf("removed = %d, want batches 0 and 1", removed)
	}
	left := dd[0].List("log-")
	if len(left) != 1 {
		t.Fatalf("left = %v", left)
	}
}

// BatchLike mirrors wal.BatchFileName without importing wal (cycle-free).
func BatchLike(batch int) string {
	return "log-000-" + pad8(batch)
}

func pad8(n int) string {
	s := ""
	for i := 0; i < 8; i++ {
		s = string(rune('0'+n%10)) + s
		n /= 10
	}
	return s
}
