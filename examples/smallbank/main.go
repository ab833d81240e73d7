// Smallbank example: the standard Smallbank mix with a configurable
// fraction of ad-hoc transactions (logged at tuple granularity even under
// command logging, Section 4.5), run through the blueprint lifecycle —
// Launch, serve, crash, Restart on the same devices, and keep serving.
//
//	go run ./examples/smallbank -txns 20000 -adhoc 20
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"pacman"
	"pacman/internal/engine"
	"pacman/internal/metrics"
	"pacman/internal/proc"
	"pacman/internal/txn"
	"pacman/internal/workload"
)

func main() {
	txns := flag.Int("txns", 20000, "transactions to run")
	adhoc := flag.Int("adhoc", 20, "percentage of ad-hoc transactions")
	threads := flag.Int("threads", 4, "recovery threads")
	customers := flag.Int("customers", 5000, "customer count")
	flag.Parse()

	// The workload declares its catalog once; Spec turns it into the
	// blueprint both Launch and Restart consume.
	w := workload.NewSmallbank(workload.SmallbankConfig{Customers: *customers, HotspotPct: 25})
	spec := workload.Spec(w)
	bp := pacman.Blueprint{Tables: spec.Tables, Procedures: spec.Procs, Seed: spec.Seed}

	db, err := pacman.Launch(bp, pacman.Options{
		Logging:       pacman.CommandLogging,
		Devices:       2,
		EpochInterval: 5 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Smallbank: %d customers, %d txns, %d%% ad-hoc\n", *customers, *txns, *adhoc)
	run(db, w, *txns, *adhoc, 42)

	// Sum all balances for verification, then crash.
	want := sum(db)
	db.Crash()
	fmt.Printf("crashed; pre-crash total balance: %.2f\n", want)

	// Restart on the same devices: the scheme comes from the manifest
	// (command logging -> CLR-P), the blueprint is validated against the
	// persisted catalog, and the returned instance is already serving.
	start := time.Now()
	db2, res, err := pacman.Restart(db.Devices(), bp, pacman.RecoverConfig{Threads: *threads})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restarted in %v: replayed %d txns (log replay %v)\n",
		time.Since(start).Round(time.Microsecond), res.Entries, res.LogTotal.Round(time.Microsecond))
	if got := sum(db2); got != want {
		log.Fatalf("MISMATCH: recovered total %.2f, want %.2f", got, want)
	}
	fmt.Println("OK: recovered total balance matches")

	// The restarted instance keeps serving the same mix — and its commits
	// land durably on the same devices.
	fmt.Println("serving on the restarted instance...")
	run(db2, w, *txns/4, *adhoc, 43)
	db2.Close()
	fmt.Println("OK: post-restart traffic served and flushed")
}

// run pushes n transactions of the Smallbank mix through a Frontend with a
// bounded window of in-flight durable-commit futures.
func run(db *pacman.DB, w *workload.Smallbank, n, adhocPct int, seed int64) {
	fe := db.MustFrontend(pacman.FrontendConfig{Workers: 4})
	defer fe.Close()
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	committed := 0
	durHist := &metrics.Histogram{}
	window := txn.NewWindow(512, func(fut *pacman.Future, tx workload.Txn) {
		if _, err := fut.Wait(); err != nil {
			if tx.MayAbort && errors.Is(err, proc.ErrAborted) {
				return
			}
			log.Fatalf("%s: %v", tx.Proc.Name(), err)
		}
		durHist.Record(fut.DurableLatency())
		committed++
	})
	for i := 0; i < n; i++ {
		tx := w.Generate(rng)
		r := pacman.Request{Proc: tx.Proc.Name(), Args: tx.Args}
		if rng.Intn(100) < adhocPct && !tx.ReadOnly {
			r.Mode = pacman.ModeAdHoc
		}
		window.Add(fe.SubmitRequest(r), tx)
	}
	window.Drain()
	elapsed := time.Since(start)
	fmt.Printf("  committed %d durable (%.0f tps, durable p50 %v p99 %v)\n",
		committed, float64(committed)/elapsed.Seconds(),
		durHist.Percentile(50).Round(time.Microsecond),
		durHist.Percentile(99).Round(time.Microsecond))
}

// sum totals all account balances.
func sum(d *pacman.DB) float64 {
	var total float64
	for _, name := range []string{"SAVINGS", "CHECKING"} {
		t := d.Table(name)
		t.ScanSlots(0, t.NumSlots(), func(r *engine.Row) {
			total += r.LatestData()[1].Float()
		})
	}
	return total
}
