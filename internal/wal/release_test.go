package wal

// Tests for the release path's commit-record recycling and the uniform
// updatePepoch guard: the release scan runs even when the persistent epoch
// is unchanged, and the durable pepoch marker is rewritten only when it
// advances.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"pacman/internal/proc"
	"pacman/internal/simdisk"
	"pacman/internal/tuple"
	"pacman/internal/txn"
)

// TestReleaseRecyclesWithoutObserver runs the full pipeline, which recycles
// released commit records into the pool, under concurrent clients, and
// checks every future resolves durable with its own execution outcome
// intact.
func TestReleaseRecyclesWithoutObserver(t *testing.T) {
	b, m := bankSetup(t)
	dev := simdisk.New("d", simdisk.Unlimited())
	cfg := Config{Kind: Command, BatchEpochs: 100, FlushInterval: time.Millisecond, Sync: true}
	cfg.FlushInterval = 200 * time.Microsecond
	ls := NewLogSet(m, cfg, []*simdisk.Device{dev})
	ls.Start()

	const workers, per = 3, 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		w := m.NewWorker()
		ls.AttachWorker(w)
		wg.Add(1)
		go func(w *txn.Worker, g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				f := txn.NewFuture(time.Now())
				ts, err := w.ExecuteFuture(f, b.Deposit,
					proc.Args{proc.A(tuple.I(int64(1 + (g+i)%20))), proc.A(tuple.I(1)), proc.A(tuple.I(1))}, txn.Command)
				if err != nil {
					t.Error(err)
					return
				}
				if i%10 == 9 {
					m.AdvanceEpoch()
				}
				// Wait for durability, heartbeating between polls: a worker
				// parked on its own future must not hold back the safe
				// epoch (the SiloR liveness contract the frontend owns in
				// production use).
				var got uint64
				var werr error
				for resolved := false; !resolved; {
					select {
					case <-f.Done():
						got, werr = f.Wait()
						resolved = true
					case <-time.After(100 * time.Microsecond):
						w.Heartbeat()
					}
				}
				if werr != nil {
					t.Errorf("worker %d txn %d: %v", g, i, werr)
					return
				}
				if got != ts {
					t.Errorf("worker %d txn %d: future ts %d != exec ts %d", g, i, got, ts)
					return
				}
			}
			w.Retire()
		}(w, g)
	}
	// Keep epochs moving so waits terminate.
	stopTick := make(chan struct{})
	go func() {
		for {
			select {
			case <-stopTick:
				return
			case <-time.After(200 * time.Microsecond):
				m.AdvanceEpoch()
			}
		}
	}()
	wg.Wait()
	close(stopTick)
	ls.Close()
}

// TestCloseReleasesAlreadyCoveredEpochs pins the updatePepoch fix: records
// flushed into epochs the persistent epoch already covers must be released
// (futures resolve durable) even though pepoch never advances — the old
// early-return left them pending until failOutstanding marked them
// ErrClosed. With no advance the durable pepoch marker must not be
// rewritten either.
func TestCloseReleasesAlreadyCoveredEpochs(t *testing.T) {
	b, m := bankSetup(t)
	dev := simdisk.New("d", simdisk.Unlimited())
	cfg := Config{Kind: Command, BatchEpochs: 100, FlushInterval: time.Millisecond, Sync: true}
	cfg.FlushInterval = time.Hour // no background flushes: Close does the only one
	// The devices are durable through epoch 5 from a "previous
	// incarnation"; the epoch clock still runs from 1, so every commit
	// below lands in an epoch pepoch already covers.
	cfg.ResumeEpoch = 5
	ls := NewLogSet(m, cfg, []*simdisk.Device{dev})
	w := m.NewWorker()
	ls.AttachWorker(w)
	ls.Start()

	var futs []*txn.Future
	for i := 0; i < 3; i++ {
		f := txn.NewFuture(time.Now())
		if _, err := w.ExecuteFuture(f, b.Deposit,
			proc.Args{proc.A(tuple.I(int64(1 + i))), proc.A(tuple.I(1)), proc.A(tuple.I(1))}, txn.Command); err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	w.Retire()
	ls.Close()

	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("future %d resolved %v, want durable (already-covered epoch left pending)", i, err)
		}
	}
	if got := ls.PersistedEpoch(); got != 5 {
		t.Fatalf("pepoch = %d, want unchanged 5", got)
	}
	if _, err := dev.Open(PepochFileName); err == nil {
		t.Fatal("pepoch marker rewritten although the persistent epoch never advanced")
	}
}

// TestPersistedEpochAdvances: updatePepoch advances the persistent epoch
// as commits reach the device and the worker's mark moves on.
func TestPersistedEpochAdvances(t *testing.T) {
	b, m := bankSetup(t)
	dev := simdisk.New("d", simdisk.Unlimited())
	cfg := Config{Kind: Command, BatchEpochs: 100, FlushInterval: time.Millisecond, Sync: true}
	cfg.FlushInterval = 100 * time.Microsecond
	ls := NewLogSet(m, cfg, []*simdisk.Device{dev})
	w := m.NewWorker()
	ls.AttachWorker(w)
	ls.Start()

	for e := 0; e < 4; e++ {
		if _, err := w.Execute(b.Deposit,
			proc.Args{proc.A(tuple.I(int64(1 + e))), proc.A(tuple.I(1)), proc.A(tuple.I(1))}, false); err != nil {
			t.Fatal(err)
		}
		m.AdvanceEpoch()
		w.Heartbeat()
	}
	w.Retire()
	deadline := time.Now().Add(5 * time.Second)
	for ls.PersistedEpoch() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("pepoch = %d, never reached 3", ls.PersistedEpoch())
		}
		time.Sleep(time.Millisecond)
	}
	ls.Close()
}

// TestFlushSyncFailureFailsRecords: a flush whose sync fails (the device
// power-failed mid-group-commit) must fail its drained records' futures
// with ErrCrashed instead of parking them in the pending set — a record
// flushed into an epoch the pepoch already covers would otherwise be
// released as durable on the next scan even though its bytes were never
// synced and die with the crash.
func TestFlushSyncFailureFailsRecords(t *testing.T) {
	b, m := bankSetup(t)
	dev := simdisk.New("d", simdisk.Unlimited())
	ls := NewLogSet(m, Config{Kind: Command, Sync: true, FlushInterval: time.Hour}, []*simdisk.Device{dev})
	w := m.NewWorker()
	ls.AttachWorker(w)

	fut := txn.NewFuture(time.Now())
	if _, err := w.ExecuteFuture(fut, b.Deposit,
		proc.Args{proc.A(tuple.I(1)), proc.A(tuple.I(5)), proc.A(tuple.I(1))}, txn.Command); err != nil {
		t.Fatal(err)
	}
	w.Retire()
	m.AdvanceEpoch()

	// Power-fail the device mid-flush: the batch write lands (write 2,
	// after the file header), its sync fails.
	plan := &simdisk.FaultPlan{Devs: map[string]*simdisk.DeviceFaults{"d": {CrashAfterWrites: 2}}}
	plan.Arm(dev)
	lg := ls.loggers[0]
	lg.flush(m.SafeEpoch())
	plan.Disarm()

	select {
	case <-fut.Done():
	default:
		t.Fatal("future unresolved after failed-sync flush")
	}
	if _, err := fut.Wait(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("future resolved %v, want ErrCrashed", err)
	}
	ls.pendMu.Lock()
	n := len(ls.pending)
	ls.pendMu.Unlock()
	if n != 0 {
		t.Fatalf("%d unsynced records parked in pending (would be released as durable)", n)
	}
	if !lg.dead {
		t.Fatal("logger not latched dead after failed sync")
	}
}
