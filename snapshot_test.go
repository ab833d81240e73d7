package pacman

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pacman/internal/workload"
)

// launchSmallbank boots the Smallbank blueprint under command logging with
// a fast epoch clock, for the snapshot-scan acceptance tests.
func launchSmallbank(t *testing.T, customers int) *DB {
	t.Helper()
	spec := workload.Spec(workload.NewSmallbank(workload.SmallbankConfig{
		Customers: customers, HotspotPct: 25,
	}))
	db, err := Launch(Blueprint{
		Tables: spec.Tables, Procedures: spec.Procs, Seed: spec.Seed,
	}, Options{Logging: CommandLogging, EpochInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSnapshotScanNeverAbortsWriters is the headline acceptance test of the
// multi-version subsystem: a scanner loops long snapshot scans while
// writers run a SendPayment-only mix over DISJOINT customer pairs — with no
// writer-writer conflicts, the only possible abort source is the scanner.
// Any writer error fails the test, and every scanned cut must conserve the
// CHECKING total exactly (SendPayment either moves money or touches
// nothing). Runs under -race via the root package's race gate.
func TestSnapshotScanNeverAbortsWriters(t *testing.T) {
	const customers = 64
	const clients = 4
	db := launchSmallbank(t, customers)
	defer db.Close()
	fe := db.MustFrontend(FrontendConfig{Workers: 4})
	defer fe.Close()

	expected := float64(customers) * 1000 // CHECKING seed per customer

	stop := make(chan struct{})
	var committed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Client c owns customers with id % clients == c: its
			// SendPayments never collide with another client's.
			own := make([]int64, 0, customers/clients)
			for id := int64(1); id <= customers; id++ {
				if int(id)%clients == c {
					own = append(own, id)
				}
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				src := own[i%len(own)]
				dst := own[(i+1)%len(own)]
				amt := float64(1 + i%40)
				if _, err := fe.Submit("SendPayment", Args{A(I(src)), A(I(dst)), A(F(amt))}).Wait(); err != nil {
					t.Errorf("writer aborted under concurrent scans: %v", err)
					return
				}
				committed.Add(1)
			}
		}(c)
	}

	// Long scans, back to back, against full write load.
	var lastEpoch uint32
	deadline := time.Now().Add(time.Second)
	for scans := 0; time.Now().Before(deadline) || scans == 0; scans++ {
		var total float64
		epoch, err := fe.Scan("CHECKING", 0, ^uint64(0), func(_ uint64, row Tuple) bool {
			total += row[1].Float()
			return true
		})
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		if total != expected {
			t.Fatalf("scan at epoch %d: CHECKING total %v, want exactly %v (inconsistent cut)", epoch, total, expected)
		}
		if epoch < lastEpoch {
			t.Fatalf("scan epochs went backward: %d after %d", epoch, lastEpoch)
		}
		lastEpoch = epoch
	}
	close(stop)
	wg.Wait()
	if committed.Load() == 0 {
		t.Fatal("no writer traffic — the test proved nothing")
	}
}

// TestSnapshotGCBoundsChains: version retention must converge, not
// accumulate — after load stops and the release frontier passes, garbage
// collection prunes every chain back to a single version.
func TestSnapshotGCBoundsChains(t *testing.T) {
	db := launchSmallbank(t, 16)
	defer db.Close()
	fe := db.MustFrontend(FrontendConfig{Workers: 2})
	defer fe.Close()

	// Hammer a few hot customers to build long chains.
	for i := 0; i < 400; i++ {
		c := I(int64(1 + i%4))
		if _, err := fe.Submit("DepositChecking", Args{A(c), A(F(1))}).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := db.MVCCStats()
	if st.Reclaimed == 0 {
		t.Fatalf("GC reclaimed nothing during load: %+v", st)
	}
	// Quiesced: within a few epochs the frontier covers every installed
	// version and chains collapse to their newest version.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st = db.MVCCStats()
		if st.MaxChain == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("chains never converged: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSnapshotViewPinsAndBounds drives the explicit-epoch view API through
// its contract: a pinned view holds its cut against GC, an epoch below the
// advanced floor is refused with ErrSnapshotReclaimed, and an unreleased
// epoch is refused with ErrSnapshotFuture.
func TestSnapshotViewPinsAndBounds(t *testing.T) {
	db := launchSmallbank(t, 8)
	defer db.Close()
	fe := db.MustFrontend(FrontendConfig{Workers: 2})
	defer fe.Close()

	// Commit a little first so the released frontier is past epoch 0 —
	// SnapshotView(0) means "newest released", so the reclaim probe below
	// needs a nonzero pinned epoch to ask for.
	for i := 0; i < 20; i++ {
		if _, err := fe.Submit("DepositChecking", Args{A(I(int64(1 + i%8))), A(F(1))}).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Pin a view, then keep writing so the frontier moves past it.
	v, err := db.SnapshotView(0)
	if err != nil {
		t.Fatal(err)
	}
	pinned := v.Epoch()
	if pinned == 0 {
		t.Fatal("released frontier still at epoch 0 after durable commits")
	}
	var before float64
	v.Scan(db.Table("CHECKING"), 0, ^uint64(0), func(_ uint64, row Tuple) bool {
		before += row[1].Float()
		return true
	})
	for i := 0; i < 200; i++ {
		if _, err := fe.Submit("DepositChecking", Args{A(I(int64(1 + i%8))), A(F(10))}).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// The pinned cut is immutable under the writes that followed it.
	var after float64
	v.Scan(db.Table("CHECKING"), 0, ^uint64(0), func(_ uint64, row Tuple) bool {
		after += row[1].Float()
		return true
	})
	if before != after {
		t.Fatalf("pinned view changed under load: %v then %v", before, after)
	}
	v.Close()

	if _, err := db.SnapshotView(db.Epoch() + 100); !errors.Is(err, ErrSnapshotFuture) {
		t.Fatalf("future epoch error = %v", err)
	}
	// After closing the pin and more commits, the floor passes the old cut.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := fe.Submit("DepositChecking", Args{A(I(1)), A(F(1))}).Wait(); err != nil {
			t.Fatal(err)
		}
		if db.MVCCStats().Floor > pinned {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("GC floor never passed the released pin: %+v", db.MVCCStats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := db.SnapshotView(pinned); !errors.Is(err, ErrSnapshotReclaimed) {
		t.Fatalf("reclaimed epoch error = %v", err)
	}
}

// TestFuzzyCheckpointRestart: a checkpoint taken while commits stream
// (fuzzy — nothing pauses) must restart cleanly, recovering exactly the
// acknowledged state, and the restarted instance must serve snapshot scans.
func TestFuzzyCheckpointRestart(t *testing.T) {
	for _, kind := range []LogKind{CommandLogging, PhysicalLogging, LogicalLogging} {
		t.Run(kind.String(), func(t *testing.T) {
			spec := workload.Spec(workload.NewSmallbank(workload.SmallbankConfig{
				Customers: 32, HotspotPct: 25,
			}))
			bp := Blueprint{Tables: spec.Tables, Procedures: spec.Procs, Seed: spec.Seed}
			db, err := Launch(bp, Options{Logging: kind, EpochInterval: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			fe := db.MustFrontend(FrontendConfig{Workers: 2})

			// Stream conserving payments; checkpoint mid-stream.
			stop := make(chan struct{})
			var clientWG sync.WaitGroup
			clientWG.Add(1)
			var writeErr error
			go func() {
				defer clientWG.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					src, dst := int64(1+i%32), int64(1+(i+7)%32)
					if _, err := fe.Submit("SendPayment", Args{A(I(src)), A(I(dst)), A(F(5))}).Wait(); err != nil {
						writeErr = err
						return
					}
				}
			}()
			time.Sleep(20 * time.Millisecond)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(20 * time.Millisecond)
			close(stop)
			clientWG.Wait()
			if writeErr != nil {
				t.Fatal(writeErr)
			}
			fe.Close()
			db.Crash()

			db2, res, err := Restart(db.Devices(), bp, RecoverConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			if res.CheckpointID == 0 {
				t.Fatal("recovery ignored the fuzzy checkpoint")
			}
			// The recovered cut conserves the seeded CHECKING total, and
			// the restarted instance serves snapshot scans immediately.
			fe2 := db2.MustFrontend(FrontendConfig{Workers: 1})
			defer fe2.Close()
			var total float64
			if _, err := fe2.Scan("CHECKING", 0, ^uint64(0), func(_ uint64, row Tuple) bool {
				total += row[1].Float()
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if want := float64(32 * 1000); total != want {
				t.Fatalf("recovered CHECKING total %v, want %v", total, want)
			}
		})
	}
}
