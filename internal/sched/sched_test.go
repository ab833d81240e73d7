package sched

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"pacman/internal/analysis"
	"pacman/internal/engine"
	"pacman/internal/proc"
	"pacman/internal/simdisk"
	"pacman/internal/tuple"
	"pacman/internal/txn"
	"pacman/internal/wal"
	"pacman/internal/workload"
)

// runBankWorkload executes n random bank transactions under command
// logging and returns the durable entries plus the live (pre-crash) DB for
// comparison.
func runBankWorkload(t testing.TB, accounts, n int, seed int64) (*workload.Bank, []*wal.Entry) {
	t.Helper()
	b := workload.NewBank(accounts)
	b.Populate(workload.DirectPopulate{})
	m := txn.NewManager(b.DB(), txn.DefaultConfig())
	dev := simdisk.New("d", simdisk.Unlimited())
	cfg := wal.Config{Kind: wal.Command, BatchEpochs: 100, FlushInterval: time.Millisecond, Sync: true}
	cfg.BatchEpochs = 2
	cfg.FlushInterval = 100 * time.Microsecond
	ls := wal.NewLogSet(m, cfg, []*simdisk.Device{dev})
	w := m.NewWorker()
	ls.AttachWorker(w)
	ls.Start()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		tx := b.Generate(rng)
		if _, err := w.Execute(tx.Proc, tx.Args, tx.AdHoc); err != nil {
			t.Fatal(err)
		}
		if i%7 == 6 {
			m.AdvanceEpoch()
		}
	}
	w.Retire()
	m.AdvanceEpoch()
	ls.Close()
	pe := ls.PersistedEpoch()
	entries, _, err := wal.ReloadAll([]*simdisk.Device{dev}, pe, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Transactions whose guards blocked every write are read-only and
	// generate no log records, so entries <= n.
	if len(entries) == 0 || len(entries) > n {
		t.Fatalf("durable entries = %d, want (0, %d]", len(entries), n)
	}
	return b, entries
}

// snapshotState captures every table's visible contents.
func snapshotState(db *engine.Database) map[string]map[uint64]string {
	out := make(map[string]map[uint64]string)
	for _, t := range db.Tables() {
		m := make(map[uint64]string)
		t.ScanSlots(0, t.NumSlots(), func(r *engine.Row) {
			if d := r.LatestData(); d != nil {
				m[r.Key] = d.String()
			}
		})
		out[t.Name()] = m
	}
	return out
}

func diffStates(t *testing.T, want, got map[string]map[uint64]string, label string) {
	t.Helper()
	for tab, rows := range want {
		for k, v := range rows {
			if got[tab][k] != v {
				t.Errorf("%s: table %s key %d: got %s, want %s", label, tab, k, got[tab][k], v)
				return
			}
		}
		if len(got[tab]) != len(rows) {
			t.Errorf("%s: table %s has %d rows, want %d", label, tab, len(got[tab]), len(rows))
			return
		}
	}
}

// replayWithMode rebuilds the database from entries using the given mode.
func replayWithMode(t testing.TB, entries []*wal.Entry, accounts int, mode Mode, threads, batchSize int) *workload.Bank {
	t.Helper()
	b := workload.NewBank(accounts)
	b.Populate(workload.DirectPopulate{})
	gdg := analysis.BuildGDG([]*analysis.LDG{
		analysis.BuildLDG(b.Transfer), analysis.BuildLDG(b.Deposit)})
	r := New(gdg, b.Registry(), b.DB(), Options{Threads: threads, Mode: mode})
	r.Start()
	for lo := 0; lo < len(entries); lo += batchSize {
		hi := lo + batchSize
		if hi > len(entries) {
			hi = len(entries)
		}
		r.Submit(entries[lo:hi])
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReplayEquivalenceAllModes is the central scheduler correctness test:
// all three modes must rebuild exactly the live database state.
func TestReplayEquivalenceAllModes(t *testing.T) {
	live, entries := runBankWorkload(t, 50, 400, 1)
	want := snapshotState(live.DB())
	for _, mode := range []Mode{StaticOnly, Synchronous, Pipelined} {
		for _, threads := range []int{1, 4} {
			got := replayWithMode(t, entries, 50, mode, threads, 37)
			diffStates(t, want, snapshotState(got.DB()),
				fmt.Sprintf("%v/threads=%d", mode, threads))
		}
	}
}

// TestReplayMatchesSerialGroundTruth: the scheduler's result equals a naive
// serial re-execution of the same entries.
func TestReplayMatchesSerialGroundTruth(t *testing.T) {
	_, entries := runBankWorkload(t, 30, 300, 2)
	// Serial ground truth.
	serial := workload.NewBank(30)
	serial.Populate(workload.DirectPopulate{})
	for _, e := range entries {
		if e.Kind != wal.EntryCommand {
			t.Fatal("unexpected entry kind")
		}
		c := serial.Registry().ByID(e.ProcID)
		ex := &installExec{ts: e.TS}
		if err := c.Execute(e.Args, ex); err != nil {
			t.Fatal(err)
		}
	}
	got := replayWithMode(t, entries, 30, Pipelined, 4, 29)
	diffStates(t, snapshotState(serial.DB()), snapshotState(got.DB()), "pipelined vs serial")
}

// TestReplayTPCCAllModes: a TPC-C command log, submitted as one batch longer
// than maxBatch, replays to the serial ground truth in every mode and at
// every thread count. At 16 threads some blocks get several workers (task
// graphs) and others one (whole pieces in log order) in the same batches.
func TestReplayTPCCAllModes(t *testing.T) {
	cfg, entries := tpccEntries(t, 2500)
	if len(entries) <= maxBatch {
		t.Fatalf("%d entries do not exceed one scheduled batch", len(entries))
	}
	serial, _ := tpccGDG(cfg)
	for _, e := range entries {
		ex := &installExec{ts: e.TS}
		if err := serial.Registry().ByID(e.ProcID).Execute(e.Args, ex); err != nil {
			t.Fatal(err)
		}
	}
	want := snapshotState(serial.DB())
	for _, mode := range []Mode{StaticOnly, Synchronous, Pipelined} {
		for _, threads := range []int{1, 2, 4, 16} {
			fresh, gdg := tpccGDG(cfg)
			r := New(gdg, fresh.Registry(), fresh.DB(), Options{Threads: threads, Mode: mode})
			r.Start()
			r.Submit(entries)
			if err := r.Finish(); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%v/threads=%d", mode, threads)
			diffStates(t, want, snapshotState(fresh.DB()), label)
			several := slices.ContainsFunc(r.workers, func(w int) bool { return w > 1 })
			if threads == 16 && (!slices.Contains(r.workers, 1) || !several) {
				t.Errorf("%s: workers per block %v, want both one and several", label, r.workers)
			}
		}
	}
}

// TestOneWorkerReplayAllocatesLikeSerial: piece-sets that replay on one
// worker execute their pieces whole, with no dry walk, key chains or tasks,
// so replaying TPC-C on one thread allocates about what serial command-log
// re-execution does (the task graphs made it several times as much).
func TestOneWorkerReplayAllocatesLikeSerial(t *testing.T) {
	cfg, entries := tpccEntries(t, 1000)
	mallocs := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	serial, _ := tpccGDG(cfg)
	want := mallocs(func() {
		for _, e := range entries {
			if err := serial.Registry().ByID(e.ProcID).Execute(e.Args, &installExec{ts: e.TS}); err != nil {
				t.Fatal(err)
			}
		}
	})
	fresh, gdg := tpccGDG(cfg)
	got := mallocs(func() {
		r := New(gdg, fresh.Registry(), fresh.DB(), Options{Threads: 1, Mode: Pipelined})
		r.Start()
		r.Submit(entries)
		if err := r.Finish(); err != nil {
			t.Fatal(err)
		}
	})
	if got > want*5/4 {
		t.Errorf("one-thread replay of %d entries: %d mallocs, serial re-execution %d", len(entries), got, want)
	}
}

// TestReplayHighContention: all transactions touch the same few accounts,
// exercising long per-key chains.
func TestReplayHighContention(t *testing.T) {
	live, entries := runBankWorkload(t, 3, 300, 3)
	want := snapshotState(live.DB())
	got := replayWithMode(t, entries, 3, Pipelined, 8, 23)
	diffStates(t, want, snapshotState(got.DB()), "high contention")
}

// TestReplayWithAdHoc mixes ad-hoc (tuple-logged) transactions into the
// command log stream (Section 4.5).
func TestReplayWithAdHoc(t *testing.T) {
	b := workload.NewBank(40)
	b.Populate(workload.DirectPopulate{})
	m := txn.NewManager(b.DB(), txn.DefaultConfig())
	dev := simdisk.New("d", simdisk.Unlimited())
	cfg := wal.Config{Kind: wal.Command, BatchEpochs: 100, FlushInterval: time.Millisecond, Sync: true}
	cfg.BatchEpochs = 2
	cfg.FlushInterval = 100 * time.Microsecond
	ls := wal.NewLogSet(m, cfg, []*simdisk.Device{dev})
	w := m.NewWorker()
	ls.AttachWorker(w)
	ls.Start()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		tx := b.Generate(rng)
		adhoc := rng.Intn(100) < 30 // 30% ad-hoc
		if _, err := w.Execute(tx.Proc, tx.Args, adhoc); err != nil {
			t.Fatal(err)
		}
		if i%9 == 8 {
			m.AdvanceEpoch()
		}
	}
	w.Retire()
	m.AdvanceEpoch()
	ls.Close()
	entries, _, err := wal.ReloadAll([]*simdisk.Device{dev}, ls.PersistedEpoch(), 2)
	if err != nil {
		t.Fatal(err)
	}
	adhocSeen := 0
	for _, e := range entries {
		if e.Kind == wal.EntryTuple {
			adhocSeen++
		}
	}
	if adhocSeen == 0 {
		t.Fatal("no ad-hoc entries generated")
	}
	want := snapshotState(b.DB())
	got := replayWithMode(t, entries, 40, Pipelined, 4, 31)
	diffStates(t, want, snapshotState(got.DB()), "with ad-hoc")
}

// TestReplayOpaquePieces: a pointer-chasing procedure whose write key
// derives from its own read forces fence-based execution; correctness must
// hold regardless.
func TestReplayOpaquePieces(t *testing.T) {
	db := engine.NewDatabase()
	db.MustAddTable(tuple.MustSchema("Ptr",
		tuple.Col("id", tuple.KindInt), tuple.Col("next", tuple.KindInt)))
	db.MustAddTable(tuple.MustSchema("Val",
		tuple.Col("id", tuple.KindInt), tuple.Col("v", tuple.KindInt)))
	reg := proc.NewRegistry()
	chase := reg.MustRegister(db, &proc.Procedure{
		Name:   "Chase",
		Params: []proc.ParamDef{proc.P("k"), proc.P("amt")},
		Body: []proc.Stmt{
			proc.Read("nxt", "Ptr", proc.Pm("k"), "next"),
			proc.Read("cur", "Val", proc.V("nxt"), "v"),
			proc.Write("Val", proc.V("nxt"), proc.Set("v", proc.Add(proc.V("cur"), proc.Pm("amt")))),
			proc.Read("self", "Ptr", proc.Pm("k"), "next"),
			proc.Write("Ptr", proc.Pm("k"), proc.Set("next", proc.Add(proc.V("self"), proc.CI(0)))),
		},
	})
	seed := func(d *engine.Database) {
		for i := int64(1); i <= 10; i++ {
			r, _ := d.Table("Ptr").GetOrCreateRow(uint64(i))
			r.Install(engine.MakeTS(0, 1), tuple.Tuple{tuple.I(i), tuple.I(i%10 + 1)}, false, true)
			r2, _ := d.Table("Val").GetOrCreateRow(uint64(i))
			r2.Install(engine.MakeTS(0, 1), tuple.Tuple{tuple.I(i), tuple.I(0)}, false, true)
		}
	}
	seed(db)
	// The Ptr piece contains both a read of Ptr[k] and a write of Ptr[k]
	// (same table: one slice); its write key comes from its own read, so
	// the dry walk must go opaque.
	m := txn.NewManager(db, txn.DefaultConfig())
	w := m.NewWorker()
	rng := rand.New(rand.NewSource(5))
	var entries []*wal.Entry
	for i := 0; i < 200; i++ {
		args := proc.Args{
			proc.A(tuple.I(int64(1 + rng.Intn(10)))),
			proc.A(tuple.I(int64(rng.Intn(5)))),
		}
		ts, err := w.Execute(chase, args, false)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, &wal.Entry{TS: ts, Kind: wal.EntryCommand, ProcID: chase.ID(), Args: args})
	}
	want := snapshotState(db)

	// Replay into a fresh catalog.
	db2 := engine.NewDatabase()
	db2.MustAddTable(tuple.MustSchema("Ptr",
		tuple.Col("id", tuple.KindInt), tuple.Col("next", tuple.KindInt)))
	db2.MustAddTable(tuple.MustSchema("Val",
		tuple.Col("id", tuple.KindInt), tuple.Col("v", tuple.KindInt)))
	reg2 := proc.NewRegistry()
	reg2.MustRegister(db2, chase.Source())
	seed(db2)
	gdg := analysis.BuildGDG([]*analysis.LDG{analysis.BuildLDG(reg2.ByID(0))})
	r := New(gdg, reg2, db2, Options{Threads: 4, Mode: Pipelined})
	r.Start()
	for lo := 0; lo < len(entries); lo += 13 {
		hi := lo + 13
		if hi > len(entries) {
			hi = len(entries)
		}
		r.Submit(entries[lo:hi])
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	diffStates(t, want, snapshotState(db2), "opaque pieces")
}

// TestBreakdownAccumulates: the Figure 20 instrumentation records non-zero
// work and scheduling shares.
func TestBreakdownAccumulates(t *testing.T) {
	_, entries := runBankWorkload(t, 20, 200, 6)
	b := workload.NewBank(20)
	b.Populate(workload.DirectPopulate{})
	gdg := analysis.BuildGDG([]*analysis.LDG{
		analysis.BuildLDG(b.Transfer), analysis.BuildLDG(b.Deposit)})
	bd := NewBreakdown()
	r := New(gdg, b.Registry(), b.DB(), Options{Threads: 4, Mode: Pipelined, Breakdown: bd})
	r.Start()
	r.Submit(entries)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if bd.Get(PhaseWork) == 0 {
		t.Error("no useful work recorded")
	}
	if bd.Get(PhaseCheck) == 0 {
		t.Error("no parameter checking recorded")
	}
	if bd.Total() == 0 {
		t.Error("empty breakdown")
	}
}

// TestEmptyAndTinyBatches: degenerate batch sizes must not deadlock.
func TestEmptyAndTinyBatches(t *testing.T) {
	live, entries := runBankWorkload(t, 10, 20, 7)
	b := workload.NewBank(10)
	b.Populate(workload.DirectPopulate{})
	gdg := analysis.BuildGDG([]*analysis.LDG{
		analysis.BuildLDG(b.Transfer), analysis.BuildLDG(b.Deposit)})
	r := New(gdg, b.Registry(), b.DB(), Options{Threads: 2, Mode: Pipelined})
	r.Start()
	r.Submit(nil) // empty batch
	for _, e := range entries {
		r.Submit([]*wal.Entry{e}) // one-entry batches
	}
	r.Submit(nil)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	diffStates(t, snapshotState(live.DB()), snapshotState(b.DB()), "tiny batches")
}

// TestDynamicGroupSplit: distinct key spaces in one piece become distinct
// tasks (the Figure 8 parallelism), while same keys chain.
func TestDynamicGroupSplit(t *testing.T) {
	b := workload.NewBank(10)
	b.Populate(workload.DirectPopulate{})
	gdg := analysis.BuildGDG([]*analysis.LDG{
		analysis.BuildLDG(b.Transfer), analysis.BuildLDG(b.Deposit)})
	// Transfer piece for block 1 (the Current RMWs).
	var def *analysis.PieceDef
	for _, d := range gdg.PiecesFor(b.Transfer.ID()) {
		if d.Block == 1 {
			def = d
		}
	}
	if def == nil {
		t.Fatal("no block-1 piece for Transfer")
	}
	inst, err := b.Transfer.NewInstance(proc.Args{proc.A(tuple.I(1)), proc.A(tuple.I(5))})
	if err != nil {
		t.Fatal(err)
	}
	// Execute the spouse-read piece first so dst resolves.
	var alpha *analysis.PieceDef
	for _, d := range gdg.PiecesFor(b.Transfer.ID()) {
		if d.Block == 0 {
			alpha = d
		}
	}
	ex := &installExec{ts: engine.MakeTS(1, 1)}
	if err := inst.ExecutePiece(alpha.Filter, ex); err != nil {
		t.Fatal(err)
	}
	accesses, opaque := inst.DryWalk(def.Filter)
	if opaque {
		t.Fatal("unexpectedly opaque")
	}
	groups := splitDynamicGroups(def, accesses)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2 (src RMW, dst RMW)", len(groups))
	}
}
