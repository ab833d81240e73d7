package wal

import (
	"testing"
	"time"

	"pacman/internal/engine"
	"pacman/internal/proc"
	"pacman/internal/simdisk"
	"pacman/internal/tuple"
	"pacman/internal/txn"
	"pacman/internal/workload"
)

func bankSetup(t testing.TB) (*workload.Bank, *txn.Manager) {
	t.Helper()
	b := workload.NewBank(20)
	b.Populate(workload.DirectPopulate{})
	return b, txn.NewManager(b.DB(), txn.DefaultConfig())
}

func mustExec(t testing.TB, w *txn.Worker, b *workload.Bank, acct int64) engine.TS {
	t.Helper()
	ts, err := w.Execute(b.Deposit,
		proc.Args{proc.A(tuple.I(acct)), proc.A(tuple.I(7)), proc.A(tuple.I(1))}, false, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestRecordRoundTripCommand(t *testing.T) {
	b, m := bankSetup(t)
	w := m.NewWorker()
	mustExec(t, w, b, 1)
	recs := w.Drain(10)
	if len(recs) != 1 {
		t.Fatal("expected one record")
	}
	buf := encodeRecord(nil, Command, recs[0])
	e, n, err := decodeRecord(buf, Command)
	if err != nil || n != len(buf) {
		t.Fatalf("decode: %v, n=%d/%d", err, n, len(buf))
	}
	if e.Kind != EntryCommand || e.TS != recs[0].TS || e.ProcID != b.Deposit.ID() {
		t.Errorf("entry = %+v", e)
	}
	if len(e.Args) != 3 || e.Args[0][0].Int() != 1 {
		t.Errorf("args = %v", e.Args)
	}
}

func TestRecordRoundTripLogicalAndPhysical(t *testing.T) {
	b, m := bankSetup(t)
	w := m.NewWorker()
	mustExec(t, w, b, 2)
	recs := w.Drain(10)
	for _, kind := range []Kind{Logical, Physical} {
		buf := encodeRecord(nil, kind, recs[0])
		e, n, err := decodeRecord(buf, kind)
		if err != nil || n != len(buf) {
			t.Fatalf("%v decode: %v", kind, err)
		}
		if e.Kind != EntryTuple || len(e.Writes) != len(recs[0].Writes) {
			t.Fatalf("%v writes = %d, want %d", kind, len(e.Writes), len(recs[0].Writes))
		}
		for i, wi := range e.Writes {
			orig := recs[0].Writes[i]
			if wi.TableID != orig.Table.ID() || wi.Key != orig.Key || !wi.After.Equal(orig.After) {
				t.Errorf("%v write %d mismatch: %+v vs %+v", kind, i, wi, orig)
			}
		}
		if kind == Physical && e.Writes[0].Slot != recs[0].Writes[0].Slot {
			t.Error("physical record lost the slot")
		}
	}
}

func TestRecordSizeOrdering(t *testing.T) {
	b, m := bankSetup(t)
	w := m.NewWorker()
	// Single-write transactions: PL > LL, but CL is not necessarily the
	// smallest (the paper's Table 1 reports LL/CL = 0.92 on Smallbank).
	mustExec(t, w, b, 3)
	recs := w.Drain(10)
	pl := len(encodeRecord(nil, Physical, recs[0]))
	ll := len(encodeRecord(nil, Logical, recs[0]))
	if pl <= ll {
		t.Errorf("sizes PL=%d LL=%d, want PL > LL", pl, ll)
	}
	// Multi-write transactions (Transfer: three writes): CL wins clearly,
	// which is the TPC-C effect behind Table 1's 10x ratios.
	if _, err := w.Execute(b.Transfer,
		proc.Args{proc.A(tuple.I(1)), proc.A(tuple.I(5))}, false, time.Now()); err != nil {
		t.Fatal(err)
	}
	recs = w.Drain(10)
	pl = len(encodeRecord(nil, Physical, recs[0]))
	ll = len(encodeRecord(nil, Logical, recs[0]))
	cl := len(encodeRecord(nil, Command, recs[0]))
	if !(pl > ll && ll > cl) {
		t.Errorf("multi-write sizes PL=%d LL=%d CL=%d, want PL > LL > CL", pl, ll, cl)
	}
}

func TestAdHocUnderCommandLogging(t *testing.T) {
	b, m := bankSetup(t)
	w := m.NewWorker()
	if _, err := w.Execute(b.Deposit,
		proc.Args{proc.A(tuple.I(4)), proc.A(tuple.I(7)), proc.A(tuple.I(1))}, true, time.Now()); err != nil {
		t.Fatal(err)
	}
	recs := w.Drain(10)
	buf := encodeRecord(nil, Command, recs[0])
	e, _, err := decodeRecord(buf, Command)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != EntryTuple {
		t.Error("ad-hoc txn under CL must decode as a tuple entry")
	}
	if len(e.Writes) == 0 {
		t.Error("ad-hoc entry lost its write set")
	}
}

func TestDistUnderCommandLogging(t *testing.T) {
	b, m := bankSetup(t)
	w := m.NewWorker()
	fut := txn.NewFuture(time.Now())
	if _, err := w.ExecuteFuture(fut, b.Deposit,
		proc.Args{proc.A(tuple.I(6)), proc.A(tuple.I(7)), proc.A(tuple.I(1))}, txn.Dist); err != nil {
		t.Fatal(err)
	}
	recs := w.Drain(10)
	if len(recs) != 1 || !recs[0].Dist {
		t.Fatalf("expected one Dist commit record, got %+v", recs)
	}
	// Under every logging kind, a distributed txn decodes as a tuple entry
	// carrying the Dist mark — replay reinstalls images, never re-executes.
	for _, kind := range []Kind{Command, Logical, Physical} {
		buf := encodeRecord(nil, kind, recs[0])
		e, n, err := decodeRecord(buf, kind)
		if err != nil || n != len(buf) {
			t.Fatalf("%v decode: %v", kind, err)
		}
		if e.Kind != EntryTuple {
			t.Errorf("%v: dist txn must decode as a tuple entry, got %v", kind, e.Kind)
		}
		if !e.Dist {
			t.Errorf("%v: entry lost the Dist mark", kind)
		}
		if len(e.Writes) != len(recs[0].Writes) {
			t.Errorf("%v: writes = %d, want %d", kind, len(e.Writes), len(recs[0].Writes))
		}
	}
	// The flag layout keeps ad-hoc and dist distinguishable.
	buf := encodeRecord(nil, Command, recs[0])
	if e, _, _ := decodeRecord(buf, Command); e == nil || e.ProcID != 0 || len(e.Args) != 0 {
		t.Errorf("dist entry should carry no command payload: %+v", e)
	}
}

func TestDecodeTornAndCorrupt(t *testing.T) {
	b, m := bankSetup(t)
	w := m.NewWorker()
	mustExec(t, w, b, 5)
	recs := w.Drain(10)
	buf := encodeRecord(nil, Command, recs[0])

	// Truncated at every possible point: decode must return n=0 (torn),
	// never an error or a bogus entry.
	for cut := 0; cut < len(buf); cut++ {
		e, n, err := decodeRecord(buf[:cut], Command)
		if err != nil || n != 0 || e != nil {
			t.Fatalf("cut=%d: e=%v n=%d err=%v", cut, e, n, err)
		}
	}
	// Flipped payload byte: CRC catches it.
	bad := append([]byte(nil), buf...)
	bad[len(bad)-1] ^= 0xFF
	if e, n, _ := decodeRecord(bad, Command); e != nil || n != 0 {
		t.Error("corrupt record accepted")
	}
}

// logSetFixture runs transactions through a live LogSet.
func logSetFixture(t *testing.T, kind Kind, devices int, txns int) (*workload.Bank, *txn.Manager, *LogSet, []*simdisk.Device) {
	t.Helper()
	b, m := bankSetup(t)
	var devs []*simdisk.Device
	for i := 0; i < devices; i++ {
		devs = append(devs, simdisk.New("d", simdisk.Unlimited()))
	}
	cfg := DefaultConfig(kind)
	cfg.BatchEpochs = 2
	cfg.FlushInterval = 200 * time.Microsecond
	ls := NewLogSet(m, cfg, devs)
	w := m.NewWorker()
	ls.AttachWorker(w)
	ls.Start()
	for i := 0; i < txns; i++ {
		mustExec(t, w, b, int64(1+i%20))
		if i%5 == 4 {
			m.AdvanceEpoch()
		}
	}
	w.Retire()
	m.AdvanceEpoch()
	ls.Close()
	return b, m, ls, devs
}

func TestLogSetWritesBatches(t *testing.T) {
	_, _, ls, devs := logSetFixture(t, Command, 1, 25)
	// 25 txns over epochs 1..6, batches of 2 epochs -> batches 0..3.
	batches, err := Discover(devs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) < 2 {
		t.Fatalf("batches = %d, want several", len(batches))
	}
	pe := ls.PersistedEpoch()
	if pe < 6 {
		t.Fatalf("pepoch = %d", pe)
	}
	entries, stats, err := ReloadAll(devs, pe, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 25 {
		t.Fatalf("reloaded %d entries (stats %+v)", len(entries), stats)
	}
	// Strict TS order.
	for i := 1; i < len(entries); i++ {
		if entries[i].TS <= entries[i-1].TS {
			t.Fatal("entries not in commit order")
		}
	}
	// pepoch durable marker readable.
	got, err := ReadPepoch(devs[0])
	if err != nil || got != pe {
		t.Errorf("ReadPepoch = %d, %v; want %d", got, err, pe)
	}
}

func TestLogSetMultiDevice(t *testing.T) {
	_, m, _, devs := logSetFixture(t, Logical, 2, 30)
	_ = m
	// Both devices must hold log files (workers round-robin on loggers;
	// with one worker only one logger gets data, so check via discover).
	batches, err := Discover(devs)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range batches {
		total += len(b.Files)
	}
	if total == 0 {
		t.Fatal("no files written")
	}
	entries, _, err := ReloadAll(devs, ^uint32(0), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 30 {
		t.Fatalf("entries = %d", len(entries))
	}
}

func TestCrashDropsUnsyncedTail(t *testing.T) {
	b, m := bankSetup(t)
	dev := simdisk.New("d", simdisk.Unlimited())
	cfg := DefaultConfig(Command)
	cfg.FlushInterval = time.Hour // no automatic flushes
	ls := NewLogSet(m, cfg, []*simdisk.Device{dev})
	w := m.NewWorker()
	ls.AttachWorker(w)
	// Commit 5 txns in epoch 1; flush them (epoch 1 safe after advancing).
	for i := 0; i < 5; i++ {
		mustExec(t, w, b, int64(1+i))
	}
	m.AdvanceEpoch() // epoch 2
	w.Heartbeat()    // idle worker publishes the new epoch
	// Manually drive one flush+pepoch round.
	ls.loggers[0].flush(m.SafeEpoch())
	ls.updatePepoch()
	peBefore := ls.PersistedEpoch()
	if peBefore != 1 {
		t.Fatalf("pepoch = %d, want 1", peBefore)
	}
	// 3 more txns in epoch 2, never flushed.
	for i := 0; i < 3; i++ {
		mustExec(t, w, b, int64(10+i))
	}
	dev.Crash()
	// Recovery: pepoch says 1; reload drops anything beyond it.
	pe, err := ReadPepoch(dev)
	if err != nil {
		t.Fatal(err)
	}
	if pe != 1 {
		t.Fatalf("recovered pepoch = %d", pe)
	}
	entries, _, err := ReloadAll([]*simdisk.Device{dev}, pe, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("recovered %d entries, want the 5 durable ones", len(entries))
	}
}

func TestReleaseCallbackAfterPepoch(t *testing.T) {
	b, m := bankSetup(t)
	dev := simdisk.New("d", simdisk.Unlimited())
	var released []*txn.Committed
	cfg := DefaultConfig(Command)
	cfg.FlushInterval = time.Hour
	cfg.OnRelease = func(cs []*txn.Committed) { released = append(released, cs...) }
	ls := NewLogSet(m, cfg, []*simdisk.Device{dev})
	w := m.NewWorker()
	ls.AttachWorker(w)
	ts := mustExec(t, w, b, 1)
	// Not flushed yet: nothing released.
	if len(released) != 0 {
		t.Fatal("released before persistence")
	}
	m.AdvanceEpoch()
	w.Heartbeat()
	ls.loggers[0].flush(m.SafeEpoch())
	ls.updatePepoch()
	if len(released) != 1 || released[0].TS != ts {
		t.Fatalf("released = %v", released)
	}
}

func TestBatchFileNameParse(t *testing.T) {
	name := BatchFileName(3, 17)
	b, err := parseBatchName(name)
	if err != nil || b != 17 {
		t.Errorf("parse(%q) = %d, %v", name, b, err)
	}
	if _, err := parseBatchName("garbage"); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := parseBatchName("log-000-xyz"); err == nil {
		t.Error("non-numeric batch accepted")
	}
}

func TestOffLogSetIsInert(t *testing.T) {
	_, m := bankSetup(t)
	ls := NewLogSet(m, DefaultConfig(Off), nil)
	ls.Start()
	w := m.NewWorker()
	ls.AttachWorker(w) // no-op
	m.AdvanceEpoch()
	if pe := ls.PersistedEpoch(); pe != m.SafeEpoch() {
		t.Errorf("off-mode pepoch = %d, want safe epoch %d", pe, m.SafeEpoch())
	}
	ls.Close()
}

func TestFileHeaderRoundTrip(t *testing.T) {
	hdr := appendFileHeader(nil, Logical, 5, 42)
	kind, logger, batch, rest, err := decodeFileHeader(hdr)
	if err != nil || kind != Logical || logger != 5 || batch != 42 || len(rest) != 0 {
		t.Errorf("header round trip: %v %d %d %v", kind, logger, batch, err)
	}
	if _, _, _, _, err := decodeFileHeader(hdr[:4]); err == nil {
		t.Error("short header accepted")
	}
	bad := append([]byte(nil), hdr...)
	bad[0] = 0
	if _, _, _, _, err := decodeFileHeader(bad); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestKindString(t *testing.T) {
	if Off.String() != "OFF" || Physical.String() != "PL" ||
		Logical.String() != "LL" || Command.String() != "CL" {
		t.Error("kind names wrong")
	}
}
