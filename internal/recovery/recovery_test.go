package recovery

import (
	"math/rand"
	"testing"
	"time"

	"pacman/internal/analysis"
	"pacman/internal/checkpoint"
	"pacman/internal/engine"
	"pacman/internal/proc"
	"pacman/internal/sched"
	"pacman/internal/simdisk"
	"pacman/internal/tuple"
	"pacman/internal/txn"
	"pacman/internal/wal"
	"pacman/internal/workload"
)

// fixture is a complete logging run: live database, devices holding logs
// (and optionally a checkpoint), plus release tracking.
type fixture struct {
	bank    *workload.Bank
	mgr     *txn.Manager
	devices []*simdisk.Device
	logset  *wal.LogSet
	futures []*txn.Future
}

// released returns the commit timestamps of the fixture's transactions
// whose futures resolved durable so far.
func (f *fixture) released() []engine.TS {
	var out []engine.TS
	for _, fu := range f.futures {
		select {
		case <-fu.Done():
			if ts, err := fu.Wait(); err == nil {
				out = append(out, ts)
			}
		default:
		}
	}
	return out
}

// buildGDG constructs the bank GDG for a fresh bank instance.
func buildGDG(b *workload.Bank) *analysis.GDG {
	return analysis.BuildGDG([]*analysis.LDG{
		analysis.BuildLDG(b.Transfer), analysis.BuildLDG(b.Deposit)})
}

// runFixture executes n transactions under the given logging kind.
// cleanShutdown retires workers and flushes everything; otherwise the run
// stops abruptly with unflushed commits (for crash tests). withCkpt takes a
// checkpoint after roughly half of the transactions.
func runFixture(t testing.TB, kind wal.Kind, n int, adhocPct int, cleanShutdown, withCkpt bool, seed int64) *fixture {
	t.Helper()
	f := &fixture{bank: workload.NewBank(60)}
	f.bank.Populate(workload.DirectPopulate{})
	f.mgr = txn.NewManager(f.bank.DB(), txn.DefaultConfig())
	f.devices = []*simdisk.Device{
		simdisk.New("ssd0", simdisk.Unlimited()),
		simdisk.New("ssd1", simdisk.Unlimited()),
	}
	cfg := wal.Config{Kind: kind, BatchEpochs: 100, FlushInterval: time.Millisecond, Sync: true}
	cfg.BatchEpochs = 3
	cfg.FlushInterval = 100 * time.Microsecond
	f.logset = wal.NewLogSet(f.mgr, cfg, f.devices)
	w := f.mgr.NewWorker()
	f.logset.AttachWorker(w)
	f.logset.Start()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		tx := f.bank.Generate(rng)
		mode := txn.Command
		if rng.Intn(100) < adhocPct {
			mode = txn.AdHoc
		}
		fu := txn.NewFuture(time.Now())
		if _, err := w.ExecuteFuture(fu, tx.Proc, tx.Args, mode); err != nil {
			t.Fatal(err)
		}
		f.futures = append(f.futures, fu)
		if i%11 == 10 {
			f.mgr.AdvanceEpoch()
			w.Heartbeat()
		}
		if withCkpt && i == n/2 {
			f.mgr.AdvanceEpoch()
			w.Heartbeat()
			ckCfg := checkpoint.Config{Threads: 2, IncludeSlots: kind == wal.Physical}
			se := f.mgr.SafeEpoch()
			if _, err := checkpoint.Write(f.bank.DB(), f.devices, ckCfg, 1,
				engine.MakeTS(se, ^uint32(0))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if cleanShutdown {
		w.Retire()
		f.mgr.AdvanceEpoch()
		f.logset.Close()
	}
	return f
}

// recoverInto recovers a fresh bank database from the fixture's devices.
func recoverInto(t testing.TB, f *fixture, scheme Scheme, threads int, opts func(*Options)) (*workload.Bank, *Result) {
	t.Helper()
	b := workload.NewBank(60)
	b.Populate(workload.DirectPopulate{})
	o := Options{
		Scheme:   scheme,
		DB:       b.DB(),
		Registry: b.Registry(),
		Devices:  f.devices,
		Threads:  threads,
	}
	if scheme == CLRP {
		o.GDG = buildGDG(b)
	}
	if opts != nil {
		opts(&o)
	}
	res, err := Run(o)
	if err != nil {
		t.Fatalf("%v recovery: %v", scheme, err)
	}
	return b, res
}

// snapshotState captures all visible rows per table.
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

func sameState(t *testing.T, want, got map[string]map[uint64]string, label string) {
	t.Helper()
	for tab, rows := range want {
		if len(got[tab]) != len(rows) {
			t.Errorf("%s: table %s rows %d, want %d", label, tab, len(got[tab]), len(rows))
			return
		}
		for k, v := range rows {
			if got[tab][k] != v {
				t.Errorf("%s: table %s key %d = %s, want %s", label, tab, k, got[tab][k], v)
				return
			}
		}
	}
}

// TestCleanCrashAllSchemes: with everything durable, every scheme must
// rebuild exactly the live pre-crash state.
func TestCleanCrashAllSchemes(t *testing.T) {
	cases := []struct {
		scheme Scheme
		kind   wal.Kind
	}{
		{PLR, wal.Physical},
		{LLR, wal.Logical},
		{LLRP, wal.Logical},
		{CLR, wal.Command},
		{CLRP, wal.Command},
	}
	for _, c := range cases {
		f := runFixture(t, c.kind, 400, 0, true, false, 11)
		want := snapshotState(f.bank.DB())
		f.mgr.Stop()
		for _, d := range f.devices {
			d.Crash()
		}
		for _, threads := range []int{1, 4} {
			got, res := recoverInto(t, f, c.scheme, threads, nil)
			if res.Entries != 400 {
				t.Fatalf("%v: replayed %d entries", c.scheme, res.Entries)
			}
			sameState(t, want, snapshotState(got.DB()), c.scheme.String())
		}
	}
}

// TestTornCrashDurabilityInvariant: crash without flushing the tail. Every
// released transaction must survive; the recovered state must equal the
// serial ground truth over the durable prefix.
func TestTornCrashDurabilityInvariant(t *testing.T) {
	f := runFixture(t, wal.Command, 500, 0, false, false, 13)
	// Abrupt crash: the pipeline halts without a final flush, then the
	// devices lose their unsynced tails.
	f.logset.Abort()
	for _, d := range f.devices {
		d.Crash()
	}
	released := f.released()

	gotCLR, resCLR := recoverInto(t, f, CLR, 1, nil)
	gotP, resP := recoverInto(t, f, CLRP, 4, nil)
	if resCLR.Entries != resP.Entries {
		t.Fatalf("CLR replayed %d, CLR-P %d", resCLR.Entries, resP.Entries)
	}
	sameState(t, snapshotState(gotCLR.DB()), snapshotState(gotP.DB()), "CLR vs CLR-P after torn crash")

	// Durability: every released TS must be at or below the recovered cut.
	pe := resCLR.Pepoch
	for _, ts := range released {
		if engine.EpochOf(ts) > pe {
			t.Fatalf("released txn in epoch %d beyond recovered pepoch %d", engine.EpochOf(ts), pe)
		}
	}
	if len(released) > resCLR.Entries {
		t.Fatalf("released %d txns but only %d recovered", len(released), resCLR.Entries)
	}
}

// TestRecoveryWithCheckpoint: checkpoint mid-run; recovery = checkpoint +
// log suffix must equal the live state, for every scheme.
func TestRecoveryWithCheckpoint(t *testing.T) {
	cases := []struct {
		scheme Scheme
		kind   wal.Kind
	}{
		{PLR, wal.Physical},
		{LLR, wal.Logical},
		{LLRP, wal.Logical},
		{CLR, wal.Command},
		{CLRP, wal.Command},
	}
	for _, c := range cases {
		f := runFixture(t, c.kind, 400, 0, true, true, 17)
		want := snapshotState(f.bank.DB())
		f.mgr.Stop()
		for _, d := range f.devices {
			d.Crash()
		}
		got, res := recoverInto(t, f, c.scheme, 4, nil)
		if res.CheckpointRows == 0 {
			t.Fatalf("%v: checkpoint not restored", c.scheme)
		}
		if res.Entries >= 400 {
			t.Fatalf("%v: checkpoint did not reduce replayed entries (%d)", c.scheme, res.Entries)
		}
		sameState(t, want, snapshotState(got.DB()), c.scheme.String()+"+ckpt")
	}
}

// TestRecoveryWithAdHocMix: command logging with ad-hoc transactions — the
// unified replay of Section 4.5.
func TestRecoveryWithAdHocMix(t *testing.T) {
	for _, pct := range []int{20, 100} {
		f := runFixture(t, wal.Command, 300, pct, true, false, int64(19+pct))
		want := snapshotState(f.bank.DB())
		f.mgr.Stop()
		for _, d := range f.devices {
			d.Crash()
		}
		got, _ := recoverInto(t, f, CLRP, 4, nil)
		sameState(t, want, snapshotState(got.DB()), "ad-hoc mix")
	}
}

// TestCLRPModes: the three scheduler modes agree.
func TestCLRPModes(t *testing.T) {
	f := runFixture(t, wal.Command, 300, 10, true, false, 23)
	want := snapshotState(f.bank.DB())
	f.mgr.Stop()
	for _, d := range f.devices {
		d.Crash()
	}
	for _, mode := range []sched.Mode{sched.StaticOnly, sched.Synchronous, sched.Pipelined} {
		got, _ := recoverInto(t, f, CLRP, 4, func(o *Options) { o.Mode = mode })
		sameState(t, want, snapshotState(got.DB()), "mode "+mode.String())
	}
}

// TestNoLatchSingleThread: the Figure 15 no-latch configuration is correct
// with one thread (it only removes latch overhead, not ordering).
func TestNoLatchSingleThread(t *testing.T) {
	for _, c := range []struct {
		scheme Scheme
		kind   wal.Kind
	}{{PLR, wal.Physical}, {LLR, wal.Logical}} {
		f := runFixture(t, c.kind, 200, 0, true, false, 29)
		want := snapshotState(f.bank.DB())
		f.mgr.Stop()
		got, _ := recoverInto(t, f, c.scheme, 1, func(o *Options) { o.DisableLatches = true })
		sameState(t, want, snapshotState(got.DB()), c.scheme.String()+" no-latch")
	}
}

// TestLLRMultiVersionState: LLR rebuilds version chains, not just heads.
func TestLLRMultiVersionState(t *testing.T) {
	f := runFixture(t, wal.Logical, 300, 0, true, false, 31)
	f.mgr.Stop()
	got, _ := recoverInto(t, f, LLR, 4, nil)
	// Some frequently-updated account must carry more than one version.
	maxVersions := 0
	cur := got.DB().Table("Current")
	cur.ScanSlots(0, cur.NumSlots(), func(r *engine.Row) {
		if n, _ := r.TruncateVersions(0); n > maxVersions {
			maxVersions = n
		}
	})
	if maxVersions < 2 {
		t.Errorf("LLR state is single-versioned (max chain %d)", maxVersions)
	}
}

// TestSchemeMetadata covers the small helpers.
func TestSchemeMetadata(t *testing.T) {
	if PLR.LogKind() != wal.Physical || LLR.LogKind() != wal.Logical ||
		LLRP.LogKind() != wal.Logical || CLR.LogKind() != wal.Command ||
		CLRP.LogKind() != wal.Command {
		t.Error("LogKind mapping wrong")
	}
	names := map[Scheme]string{PLR: "PLR", LLR: "LLR", LLRP: "LLR-P", CLR: "CLR", CLRP: "CLR-P"}
	for s, n := range names {
		if s.String() != n {
			t.Errorf("%d.String() = %s", s, s.String())
		}
	}
}

// TestBreakdownViaRecovery: Figure 20 instrumentation through the full
// recovery path.
func TestBreakdownViaRecovery(t *testing.T) {
	f := runFixture(t, wal.Command, 200, 0, true, false, 37)
	f.mgr.Stop()
	bd := sched.NewBreakdown()
	_, res := recoverInto(t, f, CLRP, 2, func(o *Options) { o.Breakdown = bd })
	if bd.Get(sched.PhaseWork) == 0 || bd.Get(sched.PhaseLoad) == 0 {
		t.Errorf("breakdown incomplete: %+v", bd.Shares())
	}
	// LogReload sums read+decode across concurrent workers, so it may
	// exceed wall time; the wall-clock invariant holds for ReloadWall.
	if res.LogReload == 0 || res.LogTotal < res.ReloadWall {
		t.Errorf("reload/total times inconsistent: work %v, wall %v, total %v",
			res.LogReload, res.ReloadWall, res.LogTotal)
	}
}

// TestEmptyLogRecovery: recovery with no log files and no checkpoint leaves
// the populated initial state intact.
func TestEmptyLogRecovery(t *testing.T) {
	b := workload.NewBank(10)
	b.Populate(workload.DirectPopulate{})
	want := snapshotState(b.DB())
	b2 := workload.NewBank(10)
	b2.Populate(workload.DirectPopulate{})
	res, err := Run(Options{
		Scheme:   CLRP,
		DB:       b2.DB(),
		Registry: b2.Registry(),
		GDG:      buildGDG(b2),
		Devices:  []*simdisk.Device{simdisk.New("d", simdisk.Unlimited())},
		Threads:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Entries != 0 {
		t.Errorf("entries = %d", res.Entries)
	}
	sameState(t, want, snapshotState(b2.DB()), "empty log")
}

// logExtraTable logs a short bank history plus writes to a fifth table,
// Extra, that the plain bank catalog lacks. A command log carries the
// writes as tuple images when adhoc is set, and otherwise as invocations of
// a procedure that catalog cannot register.
func logExtraTable(t *testing.T, kind wal.Kind, adhoc bool) []*simdisk.Device {
	t.Helper()
	b := workload.NewBank(10)
	b.Populate(workload.DirectPopulate{})
	extra, err := b.DB().AddTable(tuple.MustSchema("Extra",
		tuple.Col("id", tuple.KindInt), tuple.Col("n", tuple.KindInt)))
	if err != nil {
		t.Fatal(err)
	}
	workload.DirectPopulate{}.Seed(extra, 1, tuple.Tuple{tuple.I(1), tuple.I(0)})
	touch, err := b.Registry().Register(b.DB(), &proc.Procedure{
		Name:   "Touch",
		Params: []proc.ParamDef{proc.P("k")},
		Body: []proc.Stmt{
			proc.Read("n", "Extra", proc.Pm("k"), "n"),
			proc.Write("Extra", proc.Pm("k"), proc.Set("n", proc.Add(proc.V("n"), proc.CI(1)))),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := txn.NewManager(b.DB(), txn.DefaultConfig())
	devices := []*simdisk.Device{simdisk.New("ssd0", simdisk.Unlimited())}
	ls := wal.NewLogSet(mgr, wal.Config{Kind: kind, BatchEpochs: 100, FlushInterval: time.Millisecond, Sync: true}, devices)
	w := mgr.NewWorker()
	ls.AttachWorker(w)
	ls.Start()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		tx := b.Generate(rng)
		if _, err := w.Execute(tx.Proc, tx.Args, false); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Execute(touch, proc.Args{proc.A(tuple.I(1))}, adhoc); err != nil {
			t.Fatal(err)
		}
	}
	w.Retire()
	mgr.AdvanceEpoch()
	ls.Close()
	return devices
}

// TestCatalogMismatchErrors: recovering a log into a catalog that lacks one
// of its tables fails with an error under every scheme, whether the log
// names the table in tuple images or through a procedure that uses it, and
// so does recovering from no devices; no scheme panics.
func TestCatalogMismatchErrors(t *testing.T) {
	cases := []struct {
		scheme Scheme
		adhoc  bool
	}{
		{PLR, true}, {LLR, true}, {LLRP, true}, {CLR, true}, {CLRP, true},
		{CLR, false}, {CLRP, false},
	}
	for _, c := range cases {
		devices := logExtraTable(t, c.scheme.LogKind(), c.adhoc)
		b := workload.NewBank(10)
		b.Populate(workload.DirectPopulate{})
		o := Options{
			Scheme:   c.scheme,
			DB:       b.DB(),
			Registry: b.Registry(),
			GDG:      buildGDG(b),
			Devices:  devices,
			Threads:  2,
		}
		if _, err := Run(o); err == nil {
			t.Errorf("%v (ad hoc %v): recovered a log naming a table the catalog lacks", c.scheme, c.adhoc)
		}
		o.Devices = nil
		if _, err := Run(o); err == nil {
			t.Errorf("%v: recovered from no devices", c.scheme)
		}
	}
}

// randomCrashProperty runs the strongest invariant at several random crash
// points: whatever the crash timing, recovery equals the serial ground
// truth of the durable prefix, and released transactions survive.
func TestRandomCrashPointsProperty(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		seed := int64(100 + trial)
		n := 150 + trial*60
		f := runFixture(t, wal.Command, n, 15, false, false, seed)
		// Crash at an arbitrary moment: give loggers a random head start.
		time.Sleep(time.Duration(trial) * time.Millisecond)
		f.logset.Abort()
		for _, d := range f.devices {
			d.Crash()
		}
		f.mgr.Stop()

		gotA, resA := recoverInto(t, f, CLR, 1, nil)
		gotB, resB := recoverInto(t, f, CLRP, 4, nil)
		if resA.Entries != resB.Entries {
			t.Fatalf("trial %d: CLR %d entries, CLR-P %d", trial, resA.Entries, resB.Entries)
		}
		sameState(t, snapshotState(gotA.DB()), snapshotState(gotB.DB()), "trial")

		released := len(f.released())
		if released > resA.Entries {
			t.Fatalf("trial %d: %d released but only %d recovered", trial, released, resA.Entries)
		}
	}
}
