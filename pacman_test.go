package pacman

import (
	"errors"
	"sync"
	"testing"
	"time"

	"pacman/internal/engine"
	"pacman/internal/proc"
	"pacman/internal/tuple"
	"pacman/internal/workload"
)

// openBank opens a DB instance with the bank schema and procedures over the
// public API. The catalog is fixed, so a definition error is a bug in the
// test and panics.
func openBank(opts Options) (*DB, *workload.Bank) {
	b := workload.NewBank(40)
	d := Open(opts)
	// Rebuild the bank catalog through the public API (same order).
	for _, s := range []*Schema{
		tuple.MustSchema("Family", tuple.Col("id", tuple.KindInt), tuple.Col("Spouse", tuple.KindInt)),
		tuple.MustSchema("Current", tuple.Col("id", tuple.KindInt), tuple.Col("Value", tuple.KindInt)),
		tuple.MustSchema("Saving", tuple.Col("id", tuple.KindInt), tuple.Col("Value", tuple.KindInt)),
		tuple.MustSchema("Stats", tuple.Col("id", tuple.KindInt), tuple.Col("Count", tuple.KindInt)),
	} {
		if _, err := d.DefineTable(s); err != nil {
			panic(err)
		}
	}
	for _, p := range []*Procedure{workload.BankTransferProc(), workload.BankDepositProc()} {
		if err := d.Register(p); err != nil {
			panic(err)
		}
	}
	d.Populate(func(seed func(t *Table, key uint64, vals Tuple)) {
		for i := 1; i <= 40; i++ {
			spouse := int64(0)
			if i%2 == 1 {
				spouse = int64(i + 1)
			} else {
				spouse = int64(i - 1)
			}
			seed(d.Table("Family"), uint64(i), Tuple{tuple.I(int64(i)), tuple.I(spouse)})
			seed(d.Table("Current"), uint64(i), Tuple{tuple.I(int64(i)), tuple.I(1000)})
			seed(d.Table("Saving"), uint64(i), Tuple{tuple.I(int64(i)), tuple.I(100)})
		}
		for n := 1; n <= 10; n++ {
			seed(d.Table("Stats"), uint64(n), Tuple{tuple.I(int64(n)), tuple.I(0)})
		}
	})
	return d, b
}

// session opens a raw Session on a started database.
func session(t *testing.T, d *DB) *Session {
	t.Helper()
	s, err := d.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOpenExecuteClose(t *testing.T) {
	d, _ := openBank(Options{Logging: CommandLogging, EpochInterval: time.Millisecond})
	d.Start()
	s := session(t, d)
	ts, err := s.Exec("Transfer", Args{proc.A(tuple.I(1)), proc.A(tuple.I(50))})
	if err != nil {
		t.Fatal(err)
	}
	if ts == 0 {
		t.Error("zero timestamp")
	}
	if _, err := s.Exec("Nope", nil); err == nil {
		t.Error("unknown procedure accepted")
	}
	r, _ := d.Table("Current").GetRow(1)
	if r.LatestData()[1].Int() != 950 {
		t.Errorf("balance = %d", r.LatestData()[1].Int())
	}
	s.Retire()
	d.Close()
}

func TestCrashRecoverRoundTrip(t *testing.T) {
	d, _ := openBank(Options{Logging: CommandLogging, EpochInterval: time.Millisecond})
	d.Start()
	s := session(t, d)
	for i := 0; i < 200; i++ {
		if _, err := s.Exec("Deposit", Args{
			proc.A(tuple.I(int64(1 + i%40))), proc.A(tuple.I(7)), proc.A(tuple.I(int64(1 + i%10))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Retire()
	// Clean flush so the full history is durable, then crash.
	d.Close()
	want := map[uint64]int64{}
	cur := d.Table("Current")
	cur.ScanSlots(0, cur.NumSlots(), func(r *engine.Row) {
		want[r.Key] = r.LatestData()[1].Int()
	})
	d.Crash()

	for _, scheme := range []Scheme{CLR, CLRP} {
		d2, _ := openBank(Options{ExistingDevices: d.Devices()})
		res, err := d2.Recover(d.Devices(), scheme, RecoverConfig{Threads: 2})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if res.Entries != 200 {
			t.Fatalf("%v: entries = %d", scheme, res.Entries)
		}
		cur2 := d2.Table("Current")
		for k, v := range want {
			r, ok := cur2.GetRow(k)
			if !ok || r.LatestData()[1].Int() != v {
				t.Fatalf("%v: key %d mismatch", scheme, k)
			}
		}
	}
}

func TestCheckpointViaAPI(t *testing.T) {
	d, _ := openBank(Options{Logging: CommandLogging, EpochInterval: time.Millisecond})
	d.Start()
	s := session(t, d)
	for i := 0; i < 50; i++ {
		if _, err := s.Exec("Deposit", Args{
			proc.A(tuple.I(int64(1 + i%40))), proc.A(tuple.I(5)), proc.A(tuple.I(1)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Let the epoch clock tick past the first batch so the checkpoint's
	// safe-epoch snapshot covers it.
	time.Sleep(5 * time.Millisecond)
	s.Heartbeat()
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := s.Exec("Deposit", Args{
			proc.A(tuple.I(int64(1 + i%40))), proc.A(tuple.I(5)), proc.A(tuple.I(1)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Retire()
	d.Close()
	d.Crash()
	d2, _ := openBank(Options{ExistingDevices: d.Devices()})
	res, err := d2.Recover(d.Devices(), CLRP, RecoverConfig{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointRows == 0 {
		t.Error("checkpoint not used")
	}
	if res.Entries >= 100 {
		t.Errorf("checkpoint did not shorten the log: %d entries", res.Entries)
	}
}

// TestReleaseLatency: every commit submitted through a Frontend resolves
// durable by Close, at an epoch the persistent epoch covers, with its
// submit, execute and release times in order.
func TestReleaseLatency(t *testing.T) {
	d, _ := openBank(Options{Logging: CommandLogging, EpochInterval: time.Millisecond})
	d.Start()
	fe := d.MustFrontend(FrontendConfig{})
	var futs []*Future
	for i := 0; i < 20; i++ {
		futs = append(futs, fe.Submit("Deposit", depositArgs(1, 1)))
	}
	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		if pe := d.PersistedEpoch(); f.Epoch() > pe {
			t.Fatalf("future %d released at epoch %d > pepoch %d", i, f.Epoch(), pe)
		}
		if f.ExecAt().Before(f.Start()) || f.DurableAt().Before(f.ExecAt()) {
			t.Fatalf("future %d: start %v, exec %v, durable %v out of order", i, f.Start(), f.ExecAt(), f.DurableAt())
		}
	}
	fe.Close()
	d.Close()
}

func TestAnalyzeExposesGDG(t *testing.T) {
	d, _ := openBank(Options{})
	g := d.Analyze()
	if g.NumBlocks() != 4 {
		t.Errorf("bank GDG blocks = %d, want 4", g.NumBlocks())
	}
	d.Start()
	if d.GDGraph() == nil {
		t.Error("GDG not retained at Start")
	}
	d.Close()
}

func TestNewSessionBeforeStartReturnsError(t *testing.T) {
	d, _ := openBank(Options{})
	if _, err := d.NewSession(); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("NewSession err = %v, want ErrNotStarted", err)
	}
	if _, err := d.NewFrontend(FrontendConfig{}); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("NewFrontend err = %v, want ErrNotStarted", err)
	}
	d.Start()
	defer d.Close()
	s, err := d.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	s.Retire()
}

// TestFrontendMultiplexAPI is the acceptance scenario at the public API: 64
// client goroutines over an 8-session Frontend, every Future resolving with
// a durable timestamp.
func TestFrontendMultiplexAPI(t *testing.T) {
	d, _ := openBank(Options{Logging: CommandLogging, EpochInterval: time.Millisecond})
	d.Start()
	fe, err := d.NewFrontend(FrontendConfig{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if fe.Sessions() != 8 {
		t.Fatalf("sessions = %d, want 8", fe.Sessions())
	}
	const clients, perClient = 64, 20
	futs := make([][]*Future, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				futs[c] = append(futs[c], fe.Submit("Deposit", Args{
					proc.A(tuple.I(int64(1 + (c+i)%40))), proc.A(tuple.I(1)), proc.A(tuple.I(int64(1 + c%10))),
				}))
			}
		}(c)
	}
	wg.Wait()
	fe.Close()
	d.Close()
	for c := range futs {
		for i, f := range futs[c] {
			ts, err := f.Wait()
			if err != nil {
				t.Fatalf("client %d future %d: %v", c, i, err)
			}
			if ts == 0 || d.PersistedEpoch() < uint32(ts>>32) {
				t.Fatalf("client %d future %d: epoch %d not durable (pepoch %d)",
					c, i, ts>>32, d.PersistedEpoch())
			}
		}
	}
	// The recovered state must include every one of the 64×20 deposits.
	d.Crash()
	d2, _ := openBank(Options{ExistingDevices: d.Devices()})
	res, err := d2.Recover(d.Devices(), CLRP, RecoverConfig{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Entries != clients*perClient {
		t.Fatalf("recovered %d entries, want %d", res.Entries, clients*perClient)
	}
}

// TestFrontendCrashResolvesFutures: Crash with submissions in flight —
// every future resolves durable or with ErrCrashed; nothing hangs.
func TestFrontendCrashResolvesFutures(t *testing.T) {
	d, _ := openBank(Options{Logging: CommandLogging, EpochInterval: time.Millisecond})
	d.Start()
	fe, err := d.NewFrontend(FrontendConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var futs []*Future
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f := fe.Submit("Deposit", Args{
					proc.A(tuple.I(int64(1 + (c+i)%40))), proc.A(tuple.I(1)), proc.A(tuple.I(1)),
				})
				mu.Lock()
				futs = append(futs, f)
				mu.Unlock()
			}
		}(c)
	}
	time.Sleep(3 * time.Millisecond)
	d.Crash()
	close(stop)
	wg.Wait()
	fe.Close()
	mu.Lock()
	all := futs
	mu.Unlock()
	deadline := time.After(5 * time.Second)
	durable, crashed := 0, 0
	for i, f := range all {
		select {
		case <-f.Done():
		case <-deadline:
			t.Fatalf("future %d/%d unresolved after crash", i, len(all))
		}
		switch _, err := f.Wait(); {
		case err == nil:
			durable++
		case errors.Is(err, ErrCrashed):
			crashed++
		case errors.Is(err, ErrFrontendClosed):
		default:
			t.Fatalf("future %d: %v", i, err)
		}
	}
	if durable+crashed == 0 {
		t.Fatal("no futures observed")
	}
}

func TestRecoverIntoStartedInstanceFails(t *testing.T) {
	d, _ := openBank(Options{})
	d.Start()
	defer d.Close()
	if _, err := d.Recover(d.Devices(), CLRP, RecoverConfig{}); err == nil {
		t.Error("recover into a started instance accepted")
	}
}

// TestRecoverRejectsMismatchedInput: DB.Recover takes its catalog on faith,
// so a log naming a table the catalog lacks, and an empty device slice, must
// come back as errors rather than panics.
func TestRecoverRejectsMismatchedInput(t *testing.T) {
	d, _ := openBank(Options{Logging: CommandLogging, EpochInterval: time.Millisecond})
	if _, err := d.DefineTable(tuple.MustSchema("Extra",
		tuple.Col("id", tuple.KindInt), tuple.Col("n", tuple.KindInt))); err != nil {
		t.Fatal(err)
	}
	if err := d.Register(&Procedure{
		Name:   "Put",
		Params: []proc.ParamDef{proc.P("k")},
		Body:   []proc.Stmt{proc.Insert("Extra", proc.Pm("k"), proc.Pm("k"), proc.CI(1))},
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	fe := d.MustFrontend(FrontendConfig{Workers: 1})
	if _, err := fe.SubmitRequest(Request{Proc: "Put", Mode: ModeAdHoc, Args: Args{proc.A(tuple.I(1))}}).Wait(); err != nil {
		t.Fatal(err)
	}
	fe.Close()
	d.Close()
	d.Crash()
	for _, scheme := range []Scheme{CLR, CLRP} {
		d2, _ := openBank(Options{})
		if _, err := d2.Recover(d.Devices(), scheme, RecoverConfig{Threads: 2}); err == nil {
			t.Errorf("%v: recovered a log naming a table the catalog lacks", scheme)
		}
		if _, err := d2.Recover(nil, scheme, RecoverConfig{}); err == nil {
			t.Errorf("%v: recovered from no devices", scheme)
		}
	}
}

func TestAdHocViaAPI(t *testing.T) {
	d, _ := openBank(Options{Logging: CommandLogging, EpochInterval: time.Millisecond})
	d.Start()
	fe := d.MustFrontend(FrontendConfig{Workers: 1})
	if _, err := fe.SubmitRequest(Request{Proc: "Deposit", Mode: ModeAdHoc, Args: Args{
		proc.A(tuple.I(2)), proc.A(tuple.I(11)), proc.A(tuple.I(1)),
	}}).Wait(); err != nil {
		t.Fatal(err)
	}
	fe.Close()
	d.Close()
	d.Crash()
	d2, _ := openBank(Options{ExistingDevices: d.Devices()})
	if _, err := d2.Recover(d.Devices(), CLRP, RecoverConfig{Threads: 2}); err != nil {
		t.Fatal(err)
	}
	r, _ := d2.Table("Current").GetRow(2)
	if r.LatestData()[1].Int() != 1011 {
		t.Errorf("ad-hoc deposit lost: %d", r.LatestData()[1].Int())
	}
}
