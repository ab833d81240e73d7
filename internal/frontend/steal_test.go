package frontend

import (
	"sync"
	"testing"
	"time"

	"pacman/internal/txn"
	"pacman/internal/wal"
)

// TestWorkStealing: with per-worker queues, an idle worker steals from a
// busy peer's queue — steals are observed, nothing executes twice, and
// every future resolves durable. Double execution would show up as more
// deposits in the database than accepted requests.
func TestWorkStealing(t *testing.T) {
	fx := newFixture(t, wal.Command)
	fe := New(fx.mgr, fx.logset, Config{Workers: 4, Queue: 16})
	defer func() { fx.mgr.Stop(); fx.logset.Close() }()

	var futs []*txn.Future
	submit := func(n int) {
		var wg sync.WaitGroup
		var mu sync.Mutex
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < n/8; i++ {
					f := fe.Submit(Request{P: fx.deposit, Args: fx.depositArgs(int64(1+(c*7+i)%64), 1, 1)})
					mu.Lock()
					futs = append(futs, f)
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
	}
	// Keep offering bursts until at least one steal is observed: round-robin
	// spreads requests over queues whose owners are mid-transaction, so an
	// idle peer picking them up is the steady-state behavior, but no single
	// burst is guaranteed to exhibit it.
	deadline := time.Now().Add(5 * time.Second)
	for fe.Steals() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no steal observed after 5s of cross-queue load")
		}
		submit(64)
	}
	fe.Close()

	waitAll(t, futs, 5*time.Second)
	for i, f := range futs {
		if err := f.Err(); err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
	}
	if got := fx.deposited(); got != int64(len(futs)) {
		t.Fatalf("executed %d deposits but %d were accepted (double or dropped execution)",
			got, len(futs))
	}
	t.Logf("steals=%d of %d executed", fe.Steals(), len(futs))
}

// TestDrainEmptiesEveryQueue: Close must drain all per-worker queues, not
// just each worker's own — whatever queue a request landed in, it executes.
func TestDrainEmptiesEveryQueue(t *testing.T) {
	fx := newFixture(t, wal.Command)
	fe := New(fx.mgr, fx.logset, Config{Workers: 4, Queue: 32})

	const n = 200
	futs := make([]*txn.Future, 0, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < n/8; i++ {
				f := fe.Submit(Request{P: fx.deposit, Args: fx.depositArgs(int64(1+c), 1, 1)})
				mu.Lock()
				futs = append(futs, f)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	fe.Close()
	for i, q := range fe.queues {
		if len(q) != 0 {
			t.Fatalf("queue %d still holds %d requests after Close", i, len(q))
		}
	}
	fx.mgr.Stop()
	fx.logset.Close()

	waitAll(t, futs, 5*time.Second)
	for i, f := range futs {
		if err := f.Err(); err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
	}
	if got := fx.deposited(); got != n {
		t.Fatalf("executed %d deposits, want %d", got, n)
	}
}

// TestQueueStallAggregatesAcrossQueues is the stale-evidence regression for
// the multi-queue layout: a single idle-but-nonempty queue must NOT latch
// the queue-stall health signal while other queues make progress — movement
// anywhere resets the clock, and only a whole-pool wedge (no enqueue or
// dequeue on any queue) lets the stall age. The test drives the signal
// arithmetic on an unstarted pool so no worker races the scenario.
func TestQueueStallAggregatesAcrossQueues(t *testing.T) {
	f := &Frontend{
		queues: []chan request{make(chan request, 4), make(chan request, 4)},
		wake:   make(chan struct{}, 1),
	}
	now := time.Now()

	// Empty queues: never a stall, however old lastMove is.
	f.lastMove.Store(now.Add(-time.Minute).UnixNano())
	if got := f.QueueStall(now); got != 0 {
		t.Fatalf("empty-queue stall = %v, want 0", got)
	}

	// A request has sat in queue 0 with no movement anywhere: the stall
	// ages — this is the real whole-pool wedge the watchdog must see.
	f.queues[0] <- request{}
	if got := f.QueueStall(now); got < 55*time.Second {
		t.Fatalf("wedged-pool stall = %v, want ~1m", got)
	}

	// Queue 1 makes progress (an enqueue lands): the evidence against
	// queue 0 is stale — stealing would pick its request up as soon as any
	// worker idles — so the stall signal must reset, not latch.
	if !f.offer(request{}, 1) {
		t.Fatal("offer failed on an empty queue")
	}
	if got := f.QueueStall(now.Add(time.Millisecond)); got > 100*time.Millisecond {
		t.Fatalf("stall latched at %v despite peer-queue movement", got)
	}

	// Movement stops again with work still queued: the stall resumes aging
	// from the last movement, across ALL queues.
	if got := f.QueueStall(now.Add(30 * time.Second)); got < 29*time.Second {
		t.Fatalf("stall after renewed silence = %v, want ~30s", got)
	}
}
