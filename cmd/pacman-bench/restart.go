package main

import (
	"fmt"
	"io"
	"time"

	"pacman"
	"pacman/internal/harness"
	"pacman/internal/proc"
	"pacman/internal/tuple"
	"pacman/internal/workload"
)

// restartSmoke exercises the recover-then-serve lifecycle end to end at the
// public API: Launch a blueprint, serve traffic, crash, Restart on the same
// devices, serve more traffic through a fresh Frontend, crash again, and
// Restart once more — verifying that the second recovery replays both pre-
// and post-restart commits. It runs the round trip under command logging
// (CLR-P replay) and physical logging (PLR replay), and prints the restart
// wall time plus the time to the first durable post-restart transaction —
// the paper's actual figure of merit: how fast the system is back to
// serving.
func restartSmoke(w io.Writer, s harness.Scale) error {
	fmt.Fprintln(w, "=== Crash -> Restart -> serve: blueprint lifecycle round trip ===")
	txns := 4000
	if s.Short {
		txns = 1200
	}
	for _, kind := range []pacman.LogKind{pacman.CommandLogging, pacman.PhysicalLogging} {
		if err := restartRoundTrip(w, s, kind, txns); err != nil {
			return fmt.Errorf("%v: %w", kind, err)
		}
	}
	return nil
}

func restartRoundTrip(w io.Writer, s harness.Scale, kind pacman.LogKind, txns int) error {
	const accounts = 200
	wk := workload.NewBank(accounts)
	spec := workload.Spec(wk)
	bp := pacman.Blueprint{Tables: spec.Tables, Procedures: spec.Procs, Seed: spec.Seed}

	db, err := pacman.Launch(bp, pacman.Options{
		Logging:       kind,
		Devices:       2,
		EpochInterval: 2 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	durable1, err := serveDeposits(db, s.Workers, txns, accounts)
	if err != nil {
		return err
	}
	db.Crash()

	threads := s.Threads[len(s.Threads)-1]
	cfg := pacman.RecoverConfig{Threads: threads}

	t0 := time.Now()
	db2, res1, err := pacman.Restart(db.Devices(), bp, cfg)
	if err != nil {
		return err
	}
	restartWall := time.Since(t0)
	if res1.Entries < durable1 {
		return fmt.Errorf("first restart replayed %d entries, want >= %d durable", res1.Entries, durable1)
	}
	// Prove the restarted instance serves: one synchronous durable commit.
	fe := db2.MustFrontend(pacman.FrontendConfig{Workers: 1})
	if _, err := fe.Submit("Deposit", depositArgs(1)).Wait(); err != nil {
		return fmt.Errorf("first post-restart transaction: %w", err)
	}
	firstTxn := time.Since(t0)
	fe.Close()

	durable2, err := serveDeposits(db2, s.Workers, txns/2, accounts)
	if err != nil {
		return err
	}
	db2.Crash()

	db3, res2, err := pacman.Restart(db2.Devices(), bp, cfg)
	if err != nil {
		return err
	}
	if res2.Entries < res1.Entries+durable2 {
		return fmt.Errorf("second restart replayed %d entries, want >= %d pre- plus %d post-restart",
			res2.Entries, res1.Entries, durable2)
	}
	db3.Close()

	scheme := pacman.CLRP
	if kind == pacman.PhysicalLogging {
		scheme = pacman.PLR
	}
	fmt.Fprintf(w, "%v/%-5v restart %8v, first durable txn %8v; replayed %5d then %5d entries (gen1 %d + gen2 %d durable)\n",
		kind, scheme, restartWall.Round(time.Microsecond), firstTxn.Round(time.Microsecond),
		res1.Entries, res2.Entries, durable1, durable2)
	return nil
}

// serveDeposits pushes n Deposit transactions through a Frontend and
// reports how many reached durability (the rest died with the crash of a
// later phase or resolved ErrCrashed/ErrClosed — never silently).
func serveDeposits(db *pacman.DB, workers, n, accounts int) (int, error) {
	if workers <= 0 {
		workers = 2
	}
	fe, err := db.NewFrontend(pacman.FrontendConfig{Workers: workers})
	if err != nil {
		return 0, err
	}
	defer fe.Close()
	futs := make([]*pacman.Future, 0, n)
	for i := 0; i < n; i++ {
		futs = append(futs, fe.Submit("Deposit", depositArgs(1+i%accounts)))
	}
	durable := 0
	for _, f := range futs {
		if _, err := f.Wait(); err == nil {
			durable++
		}
	}
	return durable, nil
}

func depositArgs(account int) pacman.Args {
	return pacman.Args{
		proc.A(tuple.I(int64(account))),
		proc.A(tuple.I(1)),
		proc.A(tuple.I(1)),
	}
}
