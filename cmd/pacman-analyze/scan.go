package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pacman"
	"pacman/internal/workload"
)

// liveScan is the online-analytics face of the multi-version subsystem: it
// launches Smallbank under command logging, drives a balance-conserving
// writer mix (SendPayment + Amalgamate move money, never create it), and
// repeatedly scans SAVINGS+CHECKING through snapshot views. Each scan pins
// a released epoch, so every printed total must equal the seeded total
// exactly — money observed mid-flight would mean the cut is not consistent
// — and no scan can abort a writer, because snapshot reads never join OCC
// validation. The closing MVCC stats show garbage collection keeping the
// retained history bounded while the scans run.
func liveScan(dur time.Duration) error {
	if dur <= 0 {
		dur = time.Second
	}
	cfg := workload.SmallbankConfig{Customers: 2_000, HotspotPct: 25}
	spec := workload.Spec(workload.NewSmallbank(cfg))
	db, err := pacman.Launch(pacman.Blueprint{
		Tables: spec.Tables, Procedures: spec.Procs, Seed: spec.Seed,
	}, pacman.Options{
		Logging:       pacman.CommandLogging,
		EpochInterval: 2 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer db.Close()
	fe := db.MustFrontend(pacman.FrontendConfig{Workers: 2})
	defer fe.Close()

	// 2000 savings + 1000 checking per customer (the Smallbank population).
	expected := float64(cfg.Customers) * 3000

	var committed, aborted atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				c1 := pacman.I(1 + rng.Int63n(int64(cfg.Customers)))
				c2 := pacman.I(1 + rng.Int63n(int64(cfg.Customers)))
				var err error
				if rng.Intn(4) == 0 {
					_, err = fe.Submit("Amalgamate", pacman.Args{pacman.A(c1), pacman.A(c2)}).Wait()
				} else {
					amt := pacman.F(1 + float64(rng.Intn(5000))/100)
					_, err = fe.Submit("SendPayment", pacman.Args{pacman.A(c1), pacman.A(c2), pacman.A(amt)}).Wait()
				}
				if err != nil {
					aborted.Add(1)
				} else {
					committed.Add(1)
				}
			}
		}(int64(c) + 1)
	}

	fmt.Printf("=== live snapshot scans: smallbank, %d customers, conserving mix, %v ===\n", cfg.Customers, dur)
	fmt.Printf("expected total (conserved): %.0f\n\n", expected)
	deadline := time.After(dur)
	tick := time.NewTicker(dur / 8)
	defer tick.Stop()
scanning:
	for {
		select {
		case <-deadline:
			break scanning
		case <-tick.C:
		}
		// One view across both tables: Amalgamate moves money between
		// SAVINGS and CHECKING, so the conservation check needs a single
		// cross-table cut, not two per-table cuts at different epochs.
		v, err := db.SnapshotView(0)
		if err != nil {
			return err
		}
		var total float64
		var rows int64
		for _, table := range []string{"SAVINGS", "CHECKING"} {
			v.Scan(db.Table(table), 0, ^uint64(0), func(_ uint64, row pacman.Tuple) bool {
				total += row[1].Float()
				rows++
				return true
			})
		}
		epoch := v.Epoch()
		v.Close()
		// Cent-granular amounts accumulate ~1e-9 float error over 4000
		// rows; anything beyond that is a real inconsistency.
		verdict := "CONSISTENT"
		if diff := total - expected; diff > 1e-3 || diff < -1e-3 {
			verdict = fmt.Sprintf("INCONSISTENT %+.2f", diff)
		}
		fmt.Printf("scan epoch=%-6d staleness=%-3d rows=%-6d total=%-12.0f %s\n",
			epoch, db.Epoch()-epoch, rows, total, verdict)
	}
	close(stop)
	wg.Wait()

	st := db.MVCCStats()
	fmt.Printf("\nwriters: committed=%d aborted=%d (scans abort no one; aborts are OCC conflicts between writers)\n",
		committed.Load(), aborted.Load())
	fmt.Printf("mvcc: reclaimed=%d passes=%d max_chain=%d gc_floor=%d views=%d\n",
		st.Reclaimed, st.Passes, st.MaxChain, st.Floor, st.Views)
	return nil
}
