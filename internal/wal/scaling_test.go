package wal

// Tests for the durability pipeline under concurrent workers (exactly-once
// release across loggers), the goroutines a log set owns, and the
// persistent epoch of an inactive log set.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"pacman/internal/proc"
	"pacman/internal/simdisk"
	"pacman/internal/tuple"
	"pacman/internal/txn"
)

// TestReleaseExactlyOnce drives many workers through a log set with two
// loggers: every committed transaction's future must resolve durable
// exactly once, covered by the persistent epoch, with the commit timestamp
// its execution returned — no record may be resolved twice or stranded.
func TestReleaseExactlyOnce(t *testing.T) {
	b, m := bankSetup(t)
	devs := []*simdisk.Device{simdisk.New("d0", simdisk.Unlimited()), simdisk.New("d1", simdisk.Unlimited())}
	cfg := Config{Kind: Command, BatchEpochs: 100, FlushInterval: 200 * time.Microsecond, Sync: true}
	ls := NewLogSet(m, cfg, devs)
	ls.Start()

	const workers, per = 6, 40
	futs := make([][]*txn.Future, workers)
	ts := make([][]uint64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		w := m.NewWorker()
		ls.AttachWorker(w)
		wg.Add(1)
		go func(w *txn.Worker, g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				f := txn.NewFuture(time.Now())
				got, err := w.ExecuteFuture(f, b.Deposit,
					proc.Args{proc.A(tuple.I(int64(1 + (g*per+i)%20))), proc.A(tuple.I(1)), proc.A(tuple.I(1))}, txn.Command)
				if err != nil {
					t.Error(err)
					return
				}
				futs[g] = append(futs[g], f)
				ts[g] = append(ts[g], uint64(got))
			}
			w.Retire()
		}(w, g)
	}
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

	seen := map[uint64]int{}
	pe := ls.PersistedEpoch()
	for g := range futs {
		if len(futs[g]) != per {
			t.Fatalf("worker %d committed %d transactions, want %d", g, len(futs[g]), per)
		}
		for i, f := range futs[g] {
			got, err := f.Wait()
			if err != nil {
				t.Fatalf("worker %d txn %d: %v", g, i, err)
			}
			if got != ts[g][i] {
				t.Fatalf("worker %d txn %d: future ts %d != exec ts %d", g, i, got, ts[g][i])
			}
			if f.Epoch() > pe {
				t.Fatalf("worker %d txn %d released at epoch %d > pepoch %d", g, i, f.Epoch(), pe)
			}
			seen[got]++
		}
	}
	if len(seen) != workers*per {
		t.Fatalf("%d distinct timestamps released, %d committed", len(seen), workers*per)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("ts %d released %d times, want exactly once", k, n)
		}
	}
}

// waitGoroutines polls until the process runs exactly want goroutines and
// fails the test if it does not get there within d.
func waitGoroutines(t *testing.T, want int, d time.Duration, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		got := runtime.NumGoroutine()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d", what, got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLogSetGoroutines pins the log set's lifecycle: a started set runs one
// goroutine per logger plus the pepoch goroutine, and both Close and Abort
// stop all of them.
func TestLogSetGoroutines(t *testing.T) {
	for _, stop := range []string{"Close", "Abort"} {
		t.Run(stop, func(t *testing.T) {
			b, m := bankSetup(t)
			devs := []*simdisk.Device{simdisk.New("d0", simdisk.Unlimited()), simdisk.New("d1", simdisk.Unlimited())}
			cfg := Config{Kind: Command, BatchEpochs: 100, FlushInterval: 200 * time.Microsecond, Sync: true}
			// Let goroutines earlier tests left exiting finish first: the
			// baseline is a count that holds still for 10 ms.
			base := runtime.NumGoroutine()
			for {
				time.Sleep(10 * time.Millisecond)
				n := runtime.NumGoroutine()
				if n == base {
					break
				}
				base = n
			}
			ls := NewLogSet(m, cfg, devs)
			w := m.NewWorker()
			ls.AttachWorker(w)
			ls.Start()
			waitGoroutines(t, base+len(devs)+1, 3*time.Second, "after Start")
			f := submitFuture(t, w, b, 1)
			w.Retire()
			m.AdvanceEpoch()
			if _, err := f.Wait(); err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, base+len(devs)+1, 3*time.Second, "after a release")
			if stop == "Close" {
				ls.Close()
			} else {
				ls.Abort()
			}
			waitGoroutines(t, base, 3*time.Second, "after "+stop)
		})
	}
}

// TestOffModePersistedEpochShadowsSafeEpoch: with logging inactive the
// persistent epoch is the safe epoch, so it moves with the epoch clock.
func TestOffModePersistedEpochShadowsSafeEpoch(t *testing.T) {
	_, m := bankSetup(t)
	ls := NewLogSet(m, Config{Kind: Off}, nil)
	if ls.Active() {
		t.Fatal("Off log set reports active")
	}
	if got := ls.PersistedEpoch(); got != m.SafeEpoch() {
		t.Fatalf("pepoch = %d, want the safe epoch %d", got, m.SafeEpoch())
	}
	m.AdvanceEpoch()
	m.AdvanceEpoch()
	m.AdvanceEpoch()
	if got := ls.PersistedEpoch(); got != m.SafeEpoch() || got < 3 {
		t.Fatalf("pepoch = %d after three advances, want the safe epoch %d", got, m.SafeEpoch())
	}
	ls.Close()
}
