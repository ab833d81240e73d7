package txn

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"pacman/internal/engine"
	"pacman/internal/proc"
	"pacman/internal/tuple"
	"pacman/internal/workload"
)

// setupBank builds a populated bank workload with a manager.
func setupBank(t testing.TB, accounts int) (*workload.Bank, *Manager) {
	t.Helper()
	b := workload.NewBank(accounts)
	b.Populate(workload.DirectPopulate{})
	m := NewManager(b.DB(), DefaultConfig())
	return b, m
}

func balance(t testing.TB, tab *engine.Table, key uint64) int64 {
	t.Helper()
	r, ok := tab.GetRow(key)
	if !ok || r.LatestData() == nil {
		t.Fatalf("row %d missing", key)
	}
	return r.LatestData()[1].Int()
}

func TestExecuteCommit(t *testing.T) {
	b, m := setupBank(t, 10)
	w := m.NewWorker()
	// Transfer 100 from account 1 (spouse 2).
	ts, err := w.Execute(b.Transfer, proc.Args{proc.A(tuple.I(1)), proc.A(tuple.I(100))}, false)
	if err != nil {
		t.Fatal(err)
	}
	if engine.EpochOf(ts) != 1 {
		t.Errorf("epoch = %d", engine.EpochOf(ts))
	}
	cur := b.DB().Table("Current")
	if got := balance(t, cur, 1); got != 10-100+0 { // initial 10*1 = 10; 10-100 = -90
		t.Errorf("src = %d, want -90", got)
	}
	if got := balance(t, cur, 2); got != 20+100 {
		t.Errorf("dst = %d, want 120", got)
	}
	// One committed record buffered with the write set.
	if len(w.buf) != 1 {
		t.Fatalf("buffered = %d", len(w.buf))
	}
	recs := w.Drain(engine.EpochOf(ts))
	if len(recs) != 1 {
		t.Fatalf("drained = %d", len(recs))
	}
	c := recs[0]
	if c.Proc != b.Transfer || c.TS != ts || c.AdHoc {
		t.Error("committed record metadata wrong")
	}
	// Writes: Current x2 + Saving x1.
	if len(c.Writes) != 3 {
		t.Fatalf("writes = %+v", c.Writes)
	}
}

func TestDrainEpochBoundary(t *testing.T) {
	b, m := setupBank(t, 10)
	w := m.NewWorker()
	if _, err := w.Execute(b.Deposit, proc.Args{proc.A(tuple.I(1)), proc.A(tuple.I(5)), proc.A(tuple.I(1))}, false); err != nil {
		t.Fatal(err)
	}
	m.AdvanceEpoch() // now epoch 2
	if _, err := w.Execute(b.Deposit, proc.Args{proc.A(tuple.I(2)), proc.A(tuple.I(5)), proc.A(tuple.I(1))}, false); err != nil {
		t.Fatal(err)
	}
	got := w.Drain(1)
	if len(got) != 1 || got[0].Epoch != 1 {
		t.Fatalf("drain(1) = %+v", got)
	}
	if len(w.buf) != 1 {
		t.Fatalf("buffered = %d", len(w.buf))
	}
	got = w.Drain(2)
	if len(got) != 1 || got[0].Epoch != 2 {
		t.Fatalf("drain(2) = %+v", got)
	}
}

func TestSafeEpoch(t *testing.T) {
	_, m := setupBank(t, 10)
	w1 := m.NewWorker()
	w2 := m.NewWorker()
	// Both workers marked at epoch 1: safe = 0.
	if se := m.SafeEpoch(); se != 0 {
		t.Fatalf("safe = %d", se)
	}
	m.AdvanceEpoch()
	m.AdvanceEpoch() // epoch 3
	w1.mark.Store(3)
	// w2 still at 1: safe remains 0.
	if se := m.SafeEpoch(); se != 0 {
		t.Fatalf("safe = %d with straggler", se)
	}
	w2.Retire()
	if se := m.SafeEpoch(); se != 2 {
		t.Fatalf("safe = %d after retire, want 2", se)
	}
}

func TestAbortedTransactionLeavesNoTrace(t *testing.T) {
	b, m := setupBank(t, 10)
	p := &proc.Procedure{
		Name:   "AbortAfterWrite",
		Params: []proc.ParamDef{proc.P("k")},
		Body: []proc.Stmt{
			proc.Write("Current", proc.Pm("k"), proc.Set("Value", proc.CI(-999))),
			proc.Abort(),
		},
	}
	c, err := proc.Compile(b.DB(), p, 99)
	if err != nil {
		t.Fatal(err)
	}
	w := m.NewWorker()
	before := balance(t, b.DB().Table("Current"), 3)
	_, err = w.Execute(c, proc.Args{proc.A(tuple.I(3))}, false)
	if !errors.Is(err, proc.ErrAborted) {
		t.Fatalf("err = %v", err)
	}
	if got := balance(t, b.DB().Table("Current"), 3); got != before {
		t.Errorf("aborted write visible: %d", got)
	}
	if len(w.buf) != 0 {
		t.Error("aborted txn buffered a log record")
	}
}

func TestInsertDuplicateAborts(t *testing.T) {
	b := workload.NewBank(10)
	b.Populate(workload.DirectPopulate{})
	cfg := DefaultConfig()
	cfg.MaxRetries = 3 // persistent duplicates retry as conflicts, then give up
	m := NewManager(b.DB(), cfg)
	p := &proc.Procedure{
		Name:   "Ins",
		Params: []proc.ParamDef{proc.P("k")},
		Body: []proc.Stmt{
			proc.Insert("Stats", proc.Pm("k"), proc.Pm("k"), proc.CI(0)),
		},
	}
	c, err := proc.Compile(b.DB(), p, 99)
	if err != nil {
		t.Fatal(err)
	}
	w := m.NewWorker()
	if _, err := w.Execute(c, proc.Args{proc.A(tuple.I(500))}, false); err != nil {
		t.Fatal(err)
	}
	// A duplicate insert is retried like a conflict (it may be a stale-read
	// artifact) and surfaces as retry exhaustion when persistent.
	if _, err := w.Execute(c, proc.Args{proc.A(tuple.I(500))}, false); !errors.Is(err, ErrConflict) {
		t.Fatalf("duplicate insert err = %v", err)
	}
}

// TestConflictRetriesYieldToLatchHolder: a retry after a conflict yields
// the CPU first. On one CPU, a transaction whose read validation keeps
// failing on a latched row must let the latch holder run, or it burns its
// retries before the holder ever releases.
func TestConflictRetriesYieldToLatchHolder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b := workload.NewBank(4)
	b.Populate(workload.DirectPopulate{})
	m := NewManager(b.DB(), Config{EpochInterval: time.Hour, MaxRetries: 3})
	w := m.NewWorker()
	// Transfer reads Family[1] without writing it; a holder of that row's
	// latch fails every validation until it runs and unlocks.
	fam, _ := b.DB().Table("Family").GetRow(1)
	fam.Lock()
	go fam.Unlock()
	if _, err := w.Execute(b.Transfer, proc.Args{proc.A(tuple.I(1)), proc.A(tuple.I(5))}, false); err != nil {
		t.Fatalf("transfer behind a runnable latch holder: %v", err)
	}
}

func TestTimestampsOrderConflicts(t *testing.T) {
	b, m := setupBank(t, 4)
	const workers = 4
	const perWorker = 200
	var wg sync.WaitGroup
	tss := make([][]engine.TS, workers)
	amounts := make([][]int64, workers)
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := m.NewWorker()
			rng := rand.New(rand.NewSource(int64(wi)))
			for i := 0; i < perWorker; i++ {
				// All deposits to account 1: maximal conflict.
				amount := int64(rng.Intn(10))
				ts, err := w.Execute(b.Deposit,
					proc.Args{proc.A(tuple.I(1)), proc.A(tuple.I(amount)), proc.A(tuple.I(1))},
					false)
				if err != nil {
					t.Errorf("worker %d: %v", wi, err)
					return
				}
				tss[wi] = append(tss[wi], ts)
				amounts[wi] = append(amounts[wi], amount)
			}
		}(wi)
	}
	wg.Wait()
	// All timestamps distinct, and timestamp order is the serialization
	// order: the version read at each commit TS holds exactly the deposits
	// committed at or before it.
	deposit := make(map[engine.TS]int64)
	for wi, l := range tss {
		for i, ts := range l {
			if _, dup := deposit[ts]; dup {
				t.Fatalf("duplicate TS %d", ts)
			}
			deposit[ts] = amounts[wi][i]
		}
	}
	order := make([]engine.TS, 0, len(deposit))
	for ts := range deposit {
		order = append(order, ts)
	}
	slices.Sort(order)
	row, _ := b.DB().Table("Current").GetRow(1)
	want := row.ReadAt(order[0] - 1)[1].Int() // the populated balance
	for _, ts := range order {
		want += deposit[ts]
		if got := row.ReadAt(ts)[1].Int(); got != want {
			t.Fatalf("balance at TS %d = %d, want %d", ts, got, want)
		}
	}
	if n, _ := row.TruncateVersions(0); n != workers*perWorker+1 { // +1 for the populated version
		t.Fatalf("versions = %d, want %d", n, workers*perWorker+1)
	}
}

// TestSerializability: concurrent transfers between two accounts preserve
// the total balance invariant.
func TestSerializability(t *testing.T) {
	b, m := setupBank(t, 20)
	cur := b.DB().Table("Current")
	var total int64
	for i := uint64(1); i <= 20; i++ {
		total += balance(t, cur, i)
	}
	var wg sync.WaitGroup
	for wi := 0; wi < 4; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := m.NewWorker()
			rng := rand.New(rand.NewSource(int64(wi) + 100))
			for i := 0; i < 300; i++ {
				src := int64(1 + rng.Intn(20))
				amt := int64(rng.Intn(50))
				if _, err := w.Execute(b.Transfer,
					proc.Args{proc.A(tuple.I(src)), proc.A(tuple.I(amt))}, false); err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	var after int64
	for i := uint64(1); i <= 20; i++ {
		after += balance(t, cur, i)
	}
	if after != total {
		t.Errorf("total balance changed: %d -> %d (serializability violated)", total, after)
	}
}

func TestEpochTicker(t *testing.T) {
	_, m := setupBank(t, 4)
	cfg := m.Config()
	if cfg.EpochInterval <= 0 {
		t.Fatal("default epoch interval must be positive")
	}
	m2 := NewManager(m.DB(), Config{EpochInterval: time.Millisecond, MaxRetries: 10})
	m2.StartEpochTicker()
	start := m2.Epoch()
	time.Sleep(20 * time.Millisecond)
	m2.Stop()
	if m2.Epoch() <= start {
		t.Error("epoch ticker did not advance")
	}
	after := m2.Epoch()
	time.Sleep(5 * time.Millisecond)
	if m2.Epoch() != after {
		t.Error("epoch advanced after Stop")
	}
	m2.Stop() // idempotent
}

func TestReadYourOwnWrites(t *testing.T) {
	b, m := setupBank(t, 4)
	// Deposit writes Current then a second procedure reads it back within
	// one txn: chain two deposits to the same account in one procedure.
	p := &proc.Procedure{
		Name:   "DoubleDeposit",
		Params: []proc.ParamDef{proc.P("k")},
		Body: []proc.Stmt{
			proc.Read("v1", "Current", proc.Pm("k"), "Value"),
			proc.Write("Current", proc.Pm("k"), proc.Set("Value", proc.Add(proc.V("v1"), proc.CI(5)))),
			proc.Read("v2", "Current", proc.Pm("k"), "Value"),
			proc.Write("Current", proc.Pm("k"), proc.Set("Value", proc.Add(proc.V("v2"), proc.CI(5)))),
		},
	}
	c, err := proc.Compile(b.DB(), p, 99)
	if err != nil {
		t.Fatal(err)
	}
	w := m.NewWorker()
	before := balance(t, b.DB().Table("Current"), 1)
	if _, err := w.Execute(c, proc.Args{proc.A(tuple.I(1))}, false); err != nil {
		t.Fatal(err)
	}
	if got := balance(t, b.DB().Table("Current"), 1); got != before+10 {
		t.Errorf("balance = %d, want %d (read-own-writes)", got, before+10)
	}
	// Only one version installed per written row (writes coalesced).
	recs := w.Drain(^uint32(0) >> 1)
	if len(recs) != 1 || len(recs[0].Writes) != 1 {
		t.Fatalf("writes = %+v", recs[0].Writes)
	}
}

func TestDeleteAndReinsert(t *testing.T) {
	b, m := setupBank(t, 4)
	p := &proc.Procedure{
		Name:   "DelIns",
		Params: []proc.ParamDef{proc.P("k")},
		Body: []proc.Stmt{
			proc.Delete("Stats", proc.Pm("k")),
			proc.Insert("Stats", proc.Pm("k"), proc.Pm("k"), proc.CI(42)),
		},
	}
	c, err := proc.Compile(b.DB(), p, 99)
	if err != nil {
		t.Fatal(err)
	}
	w := m.NewWorker()
	if _, err := w.Execute(c, proc.Args{proc.A(tuple.I(1))}, false); err != nil {
		t.Fatal(err)
	}
	if got := balance(t, b.DB().Table("Stats"), 1); got != 42 {
		t.Errorf("reinserted value = %d", got)
	}
}

func TestAdHocFlagPropagates(t *testing.T) {
	b, m := setupBank(t, 4)
	w := m.NewWorker()
	if _, err := w.Execute(b.Deposit,
		proc.Args{proc.A(tuple.I(1)), proc.A(tuple.I(5)), proc.A(tuple.I(1))}, true); err != nil {
		t.Fatal(err)
	}
	recs := w.Drain(^uint32(0) >> 1)
	if len(recs) != 1 || !recs[0].AdHoc {
		t.Error("ad-hoc flag lost")
	}
}
