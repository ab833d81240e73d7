package wal

// Tests for the core-scaling pieces of the durability pipeline: sharded
// release scanning (exactly-once resolution across shards), striped batch
// encoding (byte-identical to the serial encode), and the condition-variable
// WaitForEpoch in Off mode (no busy-polling when logging is inactive).

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"pacman/internal/proc"
	"pacman/internal/simdisk"
	"pacman/internal/tuple"
	"pacman/internal/txn"
)

// TestShardedReleaseExactlyOnce drives many workers through a log set with
// several release shards and an OnRelease observer: every committed
// transaction must be surfaced exactly once across all shards, and every
// future must resolve durable — no record may be double-released by two
// shards or stranded between them.
func TestShardedReleaseExactlyOnce(t *testing.T) {
	b, m := bankSetup(t)
	devs := []*simdisk.Device{simdisk.New("d0", simdisk.Unlimited()), simdisk.New("d1", simdisk.Unlimited())}
	cfg := DefaultConfig(Command)
	cfg.FlushInterval = 200 * time.Microsecond
	cfg.ReleaseShards = 4
	var obsMu sync.Mutex
	seen := map[uint64]int{}
	cfg.OnRelease = func(recs []*txn.Committed) {
		obsMu.Lock()
		for _, c := range recs {
			seen[uint64(c.TS)]++
		}
		obsMu.Unlock()
	}
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

	total := 0
	for g := range futs {
		for i, f := range futs[g] {
			if _, err := f.Wait(); err != nil {
				t.Fatalf("worker %d txn %d: %v", g, i, err)
			}
			total++
			if n := seen[ts[g][i]]; n != 1 {
				t.Fatalf("worker %d txn %d (ts %d) released %d times, want exactly once",
					g, i, ts[g][i], n)
			}
		}
	}
	if len(seen) != total {
		t.Fatalf("observer saw %d distinct transactions, %d committed", len(seen), total)
	}
}

// TestStripedEncodeMatchesInline pins the striped-encode contract: splitting
// a batch range into concurrently encoded stripes written in order must
// produce bytes identical to the serial single-buffer encode — batch-file
// contents never depend on the stripe geometry.
func TestStripedEncodeMatchesInline(t *testing.T) {
	b, m := bankSetup(t)
	w := m.NewWorker()
	const n = 3 * stripeMinRecs
	for i := 0; i < n; i++ {
		mustExec(t, w, b, int64(1+i%20))
	}
	recs := w.Drain(^uint32(0))
	if len(recs) != n {
		t.Fatalf("drained %d records, want %d", len(recs), n)
	}
	inline := encodeRecords(nil, Command, recs)

	dev := simdisk.New("enc", simdisk.Unlimited())
	cfg := DefaultConfig(Command)
	cfg.EncodeStripes = 4
	ls := NewLogSet(m, cfg, []*simdisk.Device{dev})
	ls.Start()
	wtr := dev.Create("stripetest")
	ls.loggers[0].encodeStriped(wtr, recs)
	if err := wtr.Sync(); err != nil {
		t.Fatal(err)
	}
	r, err := dev.Open("stripetest")
	if err != nil {
		t.Fatal(err)
	}
	striped, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	ls.Close()
	if !bytes.Equal(inline, striped) {
		t.Fatalf("striped encode differs from inline: %d vs %d bytes", len(striped), len(inline))
	}
}

// TestWaitForEpochOffModeParksAndWakes pins the Off-mode WaitForEpoch fix:
// with logging inactive the persistent epoch shadows the safe epoch, and a
// waiter must park on the condition variable (not busy-poll) until epoch
// movement — routed through the manager's advance callback — wakes it.
func TestWaitForEpochOffModeParksAndWakes(t *testing.T) {
	_, m := bankSetup(t)
	ls := NewLogSet(m, Config{Kind: Off}, nil)
	if ls.Active() {
		t.Fatal("Off log set reports active")
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		ls.WaitForEpoch(4)
	}()
	// The clock is at 1 (safe epoch 1 with no workers): the waiter must
	// park, not return.
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("WaitForEpoch(4) returned with the safe epoch at 1")
	default:
	}
	// Each advance broadcasts through the manager callback; the third
	// brings the safe epoch to 4 and must wake the waiter.
	m.AdvanceEpoch()
	m.AdvanceEpoch()
	m.AdvanceEpoch()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitForEpoch(4) never woke although the safe epoch reached 4")
	}
	ls.Close()
}
