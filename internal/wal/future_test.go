package wal

import (
	"errors"
	"testing"
	"time"

	"pacman/internal/proc"
	"pacman/internal/simdisk"
	"pacman/internal/tuple"
	"pacman/internal/txn"
	"pacman/internal/workload"
)

// submitFuture executes one deposit through the future path.
func submitFuture(t testing.TB, w *txn.Worker, b *workload.Bank, acct int64) *txn.Future {
	t.Helper()
	f := txn.NewFuture(time.Now())
	if _, err := w.ExecuteFuture(f, b.Deposit,
		proc.Args{proc.A(tuple.I(acct)), proc.A(tuple.I(7)), proc.A(tuple.I(1))}, txn.Command); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestReleaseResolvesFutures: the pepoch release path resolves futures of
// covered epochs with nil error, never beyond the persistent epoch.
func TestReleaseResolvesFutures(t *testing.T) {
	b, m := bankSetup(t)
	dev := simdisk.New("d", simdisk.Unlimited())
	cfg := Config{Kind: Command, BatchEpochs: 100, FlushInterval: 200 * time.Microsecond, Sync: true}
	ls := NewLogSet(m, cfg, []*simdisk.Device{dev})
	w := m.NewWorker()
	ls.AttachWorker(w)
	ls.Start()

	var futs []*txn.Future
	for i := 0; i < 10; i++ {
		futs = append(futs, submitFuture(t, w, b, int64(1+i%20)))
		if i%3 == 2 {
			m.AdvanceEpoch()
		}
	}
	w.Retire()
	m.AdvanceEpoch()
	ls.Close()

	for i, f := range futs {
		ts, err := f.Wait()
		if err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		if f.Epoch() > ls.PersistedEpoch() {
			t.Fatalf("future %d resolved durable at epoch %d > pepoch %d", i, f.Epoch(), ls.PersistedEpoch())
		}
		if ts == 0 || f.ExecAt().IsZero() || f.DurableAt().IsZero() {
			t.Fatalf("future %d missing timestamps", i)
		}
	}
}

// TestAbortFailsOutstandingFutures: a crash resolves unreleased futures
// with ErrCrashed — both the flushed-but-uncovered tail and commits still
// sitting in worker buffers — and post-crash executions fail immediately.
func TestAbortFailsOutstandingFutures(t *testing.T) {
	b, m := bankSetup(t)
	dev := simdisk.New("d", simdisk.Unlimited())
	cfg := Config{Kind: Command, BatchEpochs: 100, FlushInterval: time.Millisecond, Sync: true}
	cfg.FlushInterval = time.Hour // nothing flushes: everything stays buffered
	ls := NewLogSet(m, cfg, []*simdisk.Device{dev})
	w := m.NewWorker()
	ls.AttachWorker(w)
	ls.Start()

	var futs []*txn.Future
	for i := 0; i < 5; i++ {
		futs = append(futs, submitFuture(t, w, b, int64(1+i)))
	}
	ls.Abort()
	for i, f := range futs {
		if _, err := f.Wait(); !errors.Is(err, ErrCrashed) {
			t.Fatalf("future %d: err = %v, want ErrCrashed", i, err)
		}
	}
	// The worker's durability is terminally failed: a transaction executed
	// after the crash still commits in memory but resolves ErrCrashed.
	post := submitFuture(t, w, b, 6)
	if _, err := post.Wait(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash future: err = %v, want ErrCrashed", err)
	}
	if post.TS() == 0 {
		t.Fatal("post-crash execution should still commit in memory")
	}
}

// TestCloseFailsUnretiredWorkerFutures: a worker that never retires holds
// the safe epoch back; Close must fail its unflushable tail with ErrClosed
// rather than leaving waiters hanging.
func TestCloseFailsUnretiredWorkerFutures(t *testing.T) {
	b, m := bankSetup(t)
	dev := simdisk.New("d", simdisk.Unlimited())
	cfg := Config{Kind: Command, BatchEpochs: 100, FlushInterval: time.Millisecond, Sync: true}
	cfg.FlushInterval = 200 * time.Microsecond
	ls := NewLogSet(m, cfg, []*simdisk.Device{dev})
	w := m.NewWorker()
	ls.AttachWorker(w)
	ls.Start()

	f := submitFuture(t, w, b, 1)
	// No Retire, no Heartbeat, no epoch advance: the commit's epoch never
	// becomes safe.
	ls.Close()
	if _, err := f.Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestOffKindImmediateDurability: an inert LogSet (Kind == Off) leaves the
// worker's durability immediate, so futures resolve at execution.
func TestOffKindImmediateDurability(t *testing.T) {
	b, m := bankSetup(t)
	ls := NewLogSet(m, Config{Kind: Off}, nil)
	w := m.NewWorker()
	ls.AttachWorker(w) // no-op: no loggers
	f := submitFuture(t, w, b, 1)
	select {
	case <-f.Done():
	default:
		t.Fatal("future not resolved at execution with logging off")
	}
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
}
