package pacman

import (
	"errors"
	"strings"
	"testing"
	"time"

	"pacman/internal/checkpoint"
	"pacman/internal/proc"
	"pacman/internal/simdisk"
	"pacman/internal/tuple"
	"pacman/internal/workload"
)

// bankBlueprint declares the paper's bank example as a Blueprint: the same
// value drives Launch and every Restart, which is the point — there is no
// second copy of the catalog to keep in sync.
func bankBlueprint(accounts int) Blueprint {
	return Blueprint{
		Tables: []*Schema{
			tuple.MustSchema("Family",
				tuple.Col("id", tuple.KindInt), tuple.Col("Spouse", tuple.KindInt)),
			tuple.MustSchema("Current",
				tuple.Col("id", tuple.KindInt), tuple.Col("Value", tuple.KindInt)),
			tuple.MustSchema("Saving",
				tuple.Col("id", tuple.KindInt), tuple.Col("Value", tuple.KindInt)),
			tuple.MustSchema("Stats",
				tuple.Col("id", tuple.KindInt), tuple.Col("Count", tuple.KindInt)),
		},
		Procedures: []*Procedure{workload.BankTransferProc(), workload.BankDepositProc()},
		Seed: func(seed Seeder) {
			for i := 1; i <= accounts; i++ {
				spouse := int64(i - 1)
				if i%2 == 1 {
					spouse = int64(i + 1)
				}
				seed("Family", uint64(i), Tuple{tuple.I(int64(i)), tuple.I(spouse)})
				seed("Current", uint64(i), Tuple{tuple.I(int64(i)), tuple.I(1000)})
				seed("Saving", uint64(i), Tuple{tuple.I(int64(i)), tuple.I(100)})
			}
			for n := 1; n <= 10; n++ {
				seed("Stats", uint64(n), Tuple{tuple.I(int64(n)), tuple.I(0)})
			}
		},
	}
}

func depositAll(t *testing.T, d *DB, n, accounts int) {
	t.Helper()
	fe, err := d.NewFrontend(FrontendConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	futs := make([]*Future, 0, n)
	for i := 0; i < n; i++ {
		futs = append(futs, fe.Submit("Deposit", Args{
			proc.A(tuple.I(int64(1 + i%accounts))), proc.A(tuple.I(1)), proc.A(tuple.I(1)),
		}))
	}
	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("deposit %d: %v", i, err)
		}
	}
}

func currentBalances(d *DB) map[uint64]int64 {
	out := map[uint64]int64{}
	tb := d.Table("Current")
	tb.ScanIndex(0, ^uint64(0), func(r *Row) bool {
		if data := r.LatestData(); data != nil {
			out[r.Key] = data[1].Int()
		}
		return true
	})
	return out
}

// TestRestartRoundTrip is the acceptance scenario: Launch from a blueprint,
// serve durable traffic, crash, Restart on the same devices, serve more
// traffic immediately through a Frontend, crash again, and Restart again —
// the second recovery must replay both pre- and post-restart commits. It
// runs under every logging kind with the scheme auto-selected from the
// manifest (command→CLR-P, physical→PLR, logical→LLR).
func TestRestartRoundTrip(t *testing.T) {
	const accounts, gen1, gen2 = 40, 300, 200
	for _, kind := range []LogKind{CommandLogging, PhysicalLogging, LogicalLogging} {
		t.Run(kind.String(), func(t *testing.T) {
			bp := bankBlueprint(accounts)
			db, err := Launch(bp, Options{Logging: kind, EpochInterval: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			depositAll(t, db, gen1, accounts)
			want1 := currentBalances(db)
			db.Crash()

			db2, res1, err := Restart(db.Devices(), bp, RecoverConfig{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			if res1.Entries != gen1 {
				t.Fatalf("first restart replayed %d entries, want %d", res1.Entries, gen1)
			}
			if got := currentBalances(db2); len(got) != len(want1) {
				t.Fatalf("recovered %d accounts, want %d", len(got), len(want1))
			} else {
				for k, v := range want1 {
					if got[k] != v {
						t.Fatalf("account %d recovered %d, want %d", k, got[k], v)
					}
				}
			}

			// The restarted instance serves immediately, and new commit
			// timestamps land strictly above the recovered high-water mark.
			fe, err := db2.NewFrontend(FrontendConfig{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			ts, err := fe.Submit("Deposit", Args{proc.A(tuple.I(1)), proc.A(tuple.I(1)), proc.A(tuple.I(1))}).Wait()
			if err != nil {
				t.Fatalf("post-restart transaction: %v", err)
			}
			if epoch := uint32(ts >> 32); epoch <= res1.Pepoch {
				t.Fatalf("post-restart commit epoch %d not above recovered pepoch %d", epoch, res1.Pepoch)
			}
			fe.Close()
			depositAll(t, db2, gen2-1, accounts)
			want2 := currentBalances(db2)
			db2.Crash()

			db3, res2, err := Restart(db2.Devices(), bp, RecoverConfig{Threads: 2})
			if err != nil {
				t.Fatalf("second restart: %v", err)
			}
			if res2.Entries != gen1+gen2 {
				t.Fatalf("second restart replayed %d entries, want %d pre- + %d post-restart",
					res2.Entries, gen1, gen2)
			}
			got3 := currentBalances(db3)
			for k, v := range want2 {
				if got3[k] != v {
					t.Fatalf("account %d after second restart: %d, want %d", k, got3[k], v)
				}
			}
			// Still servable after the second round trip.
			fe3, err := db3.NewFrontend(FrontendConfig{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fe3.Submit("Deposit", Args{proc.A(tuple.I(2)), proc.A(tuple.I(1)), proc.A(tuple.I(1))}).Wait(); err != nil {
				t.Fatalf("transaction after second restart: %v", err)
			}
			fe3.Close()
			db3.Close()
		})
	}
}

// TestRestartValidatesBlueprint: a restart whose blueprint reorders or
// drops a procedure, reshapes a table, or changes the seed must fail with
// ErrBlueprintMismatch and a diagnostic naming the divergence — not
// silently misreplay the command log.
func TestRestartValidatesBlueprint(t *testing.T) {
	bp := bankBlueprint(10)
	db, err := Launch(bp, Options{Logging: CommandLogging, EpochInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	depositAll(t, db, 20, 10)
	db.Crash()

	cases := []struct {
		name string
		mut  func(Blueprint) Blueprint
		want string
	}{
		{"reordered procedures", func(b Blueprint) Blueprint {
			b.Procedures = []*Procedure{b.Procedures[1], b.Procedures[0]}
			return b
		}, "registration order"},
		{"dropped procedure", func(b Blueprint) Blueprint {
			b.Procedures = b.Procedures[:1]
			return b
		}, "procedure count"},
		{"schema drift", func(b Blueprint) Blueprint {
			tables := append([]*Schema(nil), b.Tables...)
			tables[1] = tuple.MustSchema("Current",
				tuple.Col("id", tuple.KindInt), tuple.Col("Value", tuple.KindFloat))
			b.Tables = tables
			return b
		}, "column"},
		{"changed seed", func(b Blueprint) Blueprint {
			orig := b.Seed
			b.Seed = func(seed Seeder) {
				orig(seed)
				seed("Stats", 99, Tuple{tuple.I(99), tuple.I(0)})
			}
			return b
		}, "population"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Restart(db.Devices(), tc.mut(bp), RecoverConfig{Threads: 1})
			if !errors.Is(err, ErrBlueprintMismatch) {
				t.Fatalf("err = %v, want ErrBlueprintMismatch", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("diagnostic %q does not mention %q", err, tc.want)
			}
		})
	}

	// The unmodified blueprint still restarts fine afterward.
	db2, _, err := Restart(db.Devices(), bp, RecoverConfig{Threads: 1})
	if err != nil {
		t.Fatalf("valid blueprint rejected: %v", err)
	}
	db2.Close()
}

func TestRestartSchemeKindMismatch(t *testing.T) {
	bp := bankBlueprint(10)
	db, err := Launch(bp, Options{Logging: CommandLogging, EpochInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	depositAll(t, db, 10, 10)
	db.Crash()
	if _, _, err := Restart(db.Devices(), bp, RecoverConfig{Scheme: PLR, Threads: 1}); err == nil ||
		!strings.Contains(err.Error(), "logged with") {
		t.Fatalf("PLR against command logs: err = %v", err)
	}
	db2, _, err := Restart(db.Devices(), bp, RecoverConfig{Scheme: CLRP, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	db2.Close()
}

// TestRestartRejectsAdoptedInstance: an instance whose population bypassed
// the fingerprinting seed path (Adopt + direct populate) persists an
// unvalidatable manifest, and Restart must refuse it — pointing at the
// offline Recover path — rather than let a nil-seed blueprint validate
// against a catalog whose population it cannot prove.
func TestRestartRejectsAdoptedInstance(t *testing.T) {
	w := workload.NewBank(10)
	d := Adopt(w.DB(), w.Registry(), Options{Logging: CommandLogging, EpochInterval: time.Millisecond})
	w.Populate(workload.DirectPopulate{})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	s := session(t, d)
	if _, err := s.Exec("Deposit", Args{proc.A(tuple.I(1)), proc.A(tuple.I(1)), proc.A(tuple.I(1))}); err != nil {
		t.Fatal(err)
	}
	s.Retire()
	d.Close()
	d.Crash()

	spec := workload.Spec(workload.NewBank(10))
	bp := Blueprint{Tables: spec.Tables, Procedures: spec.Procs}
	_, _, err := Restart(d.Devices(), bp, RecoverConfig{Threads: 1})
	if !errors.Is(err, ErrBlueprintMismatch) || !strings.Contains(err.Error(), "Recover") {
		t.Fatalf("adopted-instance restart: err = %v, want ErrBlueprintMismatch pointing at Recover", err)
	}

	// The offline path still recovers such devices.
	w2 := workload.NewBank(10)
	d2 := Adopt(w2.DB(), w2.Registry(), Options{ExistingDevices: d.Devices()})
	w2.Populate(workload.DirectPopulate{})
	if _, err := d2.Recover(d.Devices(), CLRP, RecoverConfig{Threads: 1}); err != nil {
		t.Fatalf("offline recovery of adopted instance: %v", err)
	}
}

func TestRestartWithoutManifest(t *testing.T) {
	devices := []*Device{simdisk.New("bare", simdisk.Unlimited())}
	if _, _, err := Restart(devices, bankBlueprint(4), RecoverConfig{}); err == nil ||
		!strings.Contains(err.Error(), "manifest") {
		t.Fatalf("bare devices: err = %v", err)
	}
}

// TestRestartWithCheckpoints crosses the lifecycle with checkpointing:
// checkpoints taken before and after a restart must chain — the
// post-restart checkpoint takes a fresh, larger id (never clobbering or
// losing to the recovered one), and the next restart recovers from the
// newest checkpoint plus the log tail.
func TestRestartWithCheckpoints(t *testing.T) {
	const accounts = 20
	bp := bankBlueprint(accounts)
	db, err := Launch(bp, Options{Logging: CommandLogging, EpochInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	depositAll(t, db, 100, accounts)
	time.Sleep(3 * time.Millisecond) // let the epoch clock pass the commits
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	depositAll(t, db, 50, accounts)
	db.Crash()

	db2, res1, err := Restart(db.Devices(), bp, RecoverConfig{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res1.CheckpointRows == 0 {
		t.Fatal("first restart ignored the checkpoint")
	}
	if res1.Entries >= 150 {
		t.Fatalf("checkpoint did not shorten replay: %d entries", res1.Entries)
	}
	want := currentBalances(db2)

	depositAll(t, db2, 60, accounts)
	time.Sleep(3 * time.Millisecond)
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cm, err := checkpoint.FindLatest(db2.Devices())
	if err != nil || cm == nil {
		t.Fatalf("post-restart checkpoint missing: %v", err)
	}
	if cm.ID <= res1.CheckpointID {
		t.Fatalf("post-restart checkpoint id %d not above recovered id %d", cm.ID, res1.CheckpointID)
	}
	depositAll(t, db2, 10, accounts)
	db2.Crash()

	db3, res2, err := Restart(db2.Devices(), bp, RecoverConfig{Threads: 2})
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	if res2.CheckpointID != cm.ID {
		t.Fatalf("second restart recovered checkpoint %d, want %d", res2.CheckpointID, cm.ID)
	}
	got := currentBalances(db3)
	for k := range want {
		wantBal := want[k] + deltaFor(k, 70, accounts)
		if got[k] != wantBal {
			t.Fatalf("account %d after checkpointed restart: %d, want %d", k, got[k], wantBal)
		}
	}
	db3.Close()
}

// deltaFor computes how many of n round-robin unit deposits land on account
// k (depositAll targets 1 + i%accounts).
func deltaFor(k uint64, n, accounts int) int64 {
	var d int64
	for i := 0; i < n; i++ {
		if uint64(1+i%accounts) == k {
			d++
		}
	}
	return d
}

func TestOptionsMaxRetries(t *testing.T) {
	if got := Open(Options{MaxRetries: 7}).mgr.Config().MaxRetries; got != 7 {
		t.Errorf("MaxRetries = %d, want 7", got)
	}
	if got := Open(Options{}).mgr.Config().MaxRetries; got != 10000 {
		t.Errorf("default MaxRetries = %d, want 10000", got)
	}
	b := workload.NewBank(4)
	if got := Adopt(b.DB(), b.Registry(), Options{MaxRetries: 3}).mgr.Config().MaxRetries; got != 3 {
		t.Errorf("Adopt MaxRetries = %d, want 3", got)
	}
}

// TestStartErrorVariantAndMustTwins audits the constructor pairs: Start
// returns an error (nil on the idempotent second call), and every panicking
// twin follows the Must* convention.
func TestStartErrorVariantAndMustTwins(t *testing.T) {
	d, _ := openBank(Options{Logging: CommandLogging, EpochInterval: time.Millisecond})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatalf("second Start: %v", err)
	}
	s := session(t, d)
	s.Retire()
	fe := d.MustFrontend(FrontendConfig{Workers: 1})
	fe.Close()
	d.Close()

	cold, _ := openBank(Options{})
	defer func() {
		if recover() == nil {
			t.Error("MustFrontend before Start should panic")
		}
	}()
	cold.MustFrontend(FrontendConfig{})
}
