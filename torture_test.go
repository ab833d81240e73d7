package pacman_test

import (
	"errors"
	"flag"
	"fmt"
	"testing"
	"time"

	"pacman"
	"pacman/internal/proc"
	"pacman/internal/torture"
	"pacman/internal/tuple"
)

// -torture.long unlocks the extended sweep (many seeds, more cycles, both
// workloads). CI runs the short fixed-seed matrix; reproduce a reported
// violation with `pacman-bench -exp torture -seed <s>`.
var tortureLong = flag.Bool("torture.long", false, "run the extended torture sweep (slow)")

// TestTortureShort is the CI entry point of the crash-injection torture
// subsystem: a fixed seed set per logging kind, raced, with the first seed
// of each kind forcing a crash *during* Restart so re-entrant recovery is
// always exercised. Any oracle violation fails with the seed and the armed
// fault plans, which deterministically re-derive via pacman-bench.
func TestTortureShort(t *testing.T) {
	kinds := []struct {
		name string
		kind pacman.LogKind
	}{
		{"CL", pacman.CommandLogging},
		{"PL", pacman.PhysicalLogging},
		{"LL", pacman.LogicalLogging},
	}
	seeds := []int64{1, 6, 36} // 6 and 36 are past oracle catches, kept as regressions
	for _, k := range kinds {
		k := k
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			for i, seed := range seeds {
				st, err := torture.Run(torture.Config{
					Seed:               seed,
					Cycles:             3,
					TxnsPerCycle:       200,
					Logging:            k.kind,
					ForceRecoveryCrash: i == 0,
				})
				if err != nil {
					t.Fatal(err)
				}
				if st.Acked == 0 || st.Stamps == 0 {
					t.Fatalf("seed %d: implausible run, nothing verified: %s", seed, st)
				}
				if i == 0 && st.RecoveryCrashes == 0 {
					t.Fatalf("seed %d: forced crash-during-Restart never happened: %s", seed, st)
				}
				t.Logf("seed %d: %s", seed, st)
			}
		})
	}
}

// TestTortureLong is the escape hatch: a wide seed sweep across kinds and
// workloads, hidden behind -torture.long.
func TestTortureLong(t *testing.T) {
	if !*tortureLong {
		t.Skip("pass -torture.long to run the extended sweep")
	}
	for _, kind := range []pacman.LogKind{pacman.CommandLogging, pacman.PhysicalLogging, pacman.LogicalLogging} {
		for seed := int64(1); seed <= 50; seed++ {
			st, err := torture.Run(torture.Config{
				Seed: seed, Cycles: 5, TxnsPerCycle: 400, Logging: kind,
				ForceRecoveryCrash: seed%2 == 0,
			})
			if err != nil {
				t.Errorf("%v seed %d: %v", kind, seed, err)
			} else if seed == 1 {
				t.Logf("%v seed 1: %s", kind, st)
			}
		}
	}
	for seed := int64(1); seed <= 10; seed++ {
		if _, err := torture.Run(torture.Config{
			Seed: seed, Cycles: 4, TxnsPerCycle: 300, Workload: torture.WorkloadTPCC,
		}); err != nil {
			t.Errorf("tpcc seed %d: %v", seed, err)
		}
	}
}

// pairBlueprint is a minimal two-row-per-transaction catalog for the
// Future crash-semantics test: PairPut(a,b,v) writes v to rows a and b of
// KV in one transaction, so atomicity is observable from outside.
func pairBlueprint(rows int) pacman.Blueprint {
	a, b, v := proc.Pm("a"), proc.Pm("b"), proc.Pm("v")
	return pacman.Blueprint{
		Tables: []*pacman.Schema{tuple.MustSchema("KV",
			tuple.Col("id", tuple.KindInt), tuple.Col("v", tuple.KindInt))},
		Procedures: []*pacman.Procedure{{
			Name:   "PairPut",
			Params: []proc.ParamDef{proc.P("a"), proc.P("b"), proc.P("v")},
			Body: []proc.Stmt{
				proc.Read("ra", "KV", a, "v"),
				proc.Write("KV", a, proc.Set("v", v)),
				proc.Read("rb", "KV", b, "v"),
				proc.Write("KV", b, proc.Set("v", v)),
			},
		}},
		Seed: func(seed pacman.Seeder) {
			for k := 1; k <= rows; k++ {
				seed("KV", uint64(k), pacman.Tuple{tuple.I(int64(k)), tuple.I(0)})
			}
		},
	}
}

func pairArgs(i int, val int64) pacman.Args {
	return pacman.Args{
		proc.A(tuple.I(int64(2*i + 1))),
		proc.A(tuple.I(int64(2*i + 2))),
		proc.A(tuple.I(val)),
	}
}

func kvValues(db *pacman.DB) map[uint64]int64 {
	out := map[uint64]int64{}
	db.Table("KV").ScanIndex(0, ^uint64(0), func(r *pacman.Row) bool {
		if d := r.LatestData(); d != nil {
			out[r.Key] = d[1].Int()
		}
		return true
	})
	return out
}

// TestFutureCrashSemantics pins the txn.Future contract at the torture
// boundary: a future resolved durable (nil) before Crash() must read back
// after Restart, and a future that failed with ErrCrashed must be either
// fully present or fully absent — never one row of its two writes.
func TestFutureCrashSemantics(t *testing.T) {
	const pairs = 256
	bp := pairBlueprint(2 * pairs)
	for _, kind := range []pacman.LogKind{pacman.CommandLogging, pacman.PhysicalLogging, pacman.LogicalLogging} {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			db, err := pacman.Launch(bp, pacman.Options{Logging: kind, EpochInterval: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			fe := db.MustFrontend(pacman.FrontendConfig{Workers: 4})

			// Phase 1: a synchronously acknowledged transaction.
			if _, err := fe.Submit("PairPut", pairArgs(0, 111)).Wait(); err != nil {
				t.Fatal(err)
			}
			// Phase 2: a burst the crash races: the early half gets a few
			// group-commit epochs to resolve durable, the tail dies in
			// flight with ErrCrashed.
			futs := make([]*pacman.Future, 0, pairs-1)
			for i := 1; i < pairs; i++ {
				futs = append(futs, fe.Submit("PairPut", pairArgs(i, int64(1000+i))))
				if i == pairs/2 {
					time.Sleep(5 * time.Millisecond)
				}
			}
			db.Crash()
			fe.Close()

			durable := map[int]int64{0: 111}
			maybe := map[int]int64{}
			for i, f := range futs {
				_, err := f.Wait()
				switch {
				case err == nil:
					durable[i+1] = int64(1000 + i + 1)
				case errors.Is(err, pacman.ErrCrashed) || errors.Is(err, pacman.ErrClosed):
					maybe[i+1] = int64(1000 + i + 1)
				case errors.Is(err, pacman.ErrFrontendClosed):
					// rejected before execution: must be fully absent
				default:
					t.Fatalf("pair %d: unexpected error %v", i+1, err)
				}
			}

			db2, _, err := pacman.Restart(db.Devices(), bp, pacman.RecoverConfig{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			got := kvValues(db2)
			for i, want := range durable {
				a, b := got[uint64(2*i+1)], got[uint64(2*i+2)]
				if a != want || b != want {
					t.Fatalf("%v: durable pair %d lost: rows (%d, %d), want %d", kind, i, a, b, want)
				}
			}
			survived := 0
			for i, val := range maybe {
				a, b := got[uint64(2*i+1)], got[uint64(2*i+2)]
				if a != b {
					t.Fatalf("%v: ErrCrashed pair %d TORN: rows (%d, %d)", kind, i, a, b)
				}
				if a != 0 && a != val {
					t.Fatalf("%v: ErrCrashed pair %d holds foreign value %d", kind, i, a)
				}
				if a == val {
					survived++
				}
			}
			t.Logf("%v: %d durable, %d maybe (%d survived), all intact", kind, len(durable), len(maybe), survived)
			db2.Close()
		})
	}
}
