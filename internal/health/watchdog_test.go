package health

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ctlSignal is a test-controlled probe: the watchdog sees whatever value
// the test last stored.
type ctlSignal struct{ v atomic.Int64 }

func (s *ctlSignal) probe(time.Time) time.Duration { return time.Duration(s.v.Load()) }

// TestHysteresisEdges drives sweep directly (no ticker) so both hysteresis
// edges are checked cycle-exactly: TripAfter consecutive breaches to enter
// Brownout, ClearAfter consecutive clean sweeps to leave it.
func TestHysteresisEdges(t *testing.T) {
	w := New(Config{TripAfter: 3, ClearAfter: 5})
	sig := &ctlSignal{}
	w.Register("sync", 10*time.Millisecond, sig.probe)

	now := time.Now()
	tick := func() { now = now.Add(time.Millisecond); w.sweep(now) }

	sig.v.Store(int64(50 * time.Millisecond)) // breached
	tick()
	tick()
	if w.State() != Healthy {
		t.Fatalf("tripped after 2 breached sweeps; TripAfter is 3")
	}
	tick()
	if w.State() != Brownout {
		t.Fatalf("still %v after TripAfter breached sweeps", w.State())
	}
	if w.Brownouts() != 1 {
		t.Fatalf("Brownouts = %d, want 1", w.Brownouts())
	}

	sig.v.Store(int64(time.Millisecond)) // recovered
	for i := 0; i < 4; i++ {
		tick()
	}
	if w.State() != Brownout {
		t.Fatalf("cleared after 4 clean sweeps; ClearAfter is 5")
	}
	tick()
	if w.State() != Healthy {
		t.Fatalf("still %v after ClearAfter clean sweeps", w.State())
	}

	trs := w.Transitions()
	if len(trs) != 2 {
		t.Fatalf("transitions = %d, want 2: %+v", len(trs), trs)
	}
	if trs[0].To != "brownout" || !strings.Contains(trs[0].Cause, "sync") {
		t.Fatalf("first transition %+v should name the breached signal", trs[0])
	}
	if trs[1].To != "healthy" {
		t.Fatalf("second transition %+v should return to healthy", trs[1])
	}
}

// TestFlappingSignalNeverTrips: a signal that alternates breached/clean
// resets the trip counter every clean sweep, so it can flap forever
// without entering Brownout — the whole point of sweep-counted hysteresis.
func TestFlappingSignalNeverTrips(t *testing.T) {
	w := New(Config{TripAfter: 2, ClearAfter: 2})
	sig := &ctlSignal{}
	w.Register("sync", 10*time.Millisecond, sig.probe)
	now := time.Now()
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			sig.v.Store(int64(time.Second))
		} else {
			sig.v.Store(0)
		}
		now = now.Add(time.Millisecond)
		w.sweep(now)
	}
	if w.State() != Healthy || w.Brownouts() != 0 {
		t.Fatalf("flapping signal tripped the watchdog: %v brownouts=%d", w.State(), w.Brownouts())
	}
}

// TestMonitorOnlySignal: zero budget means sampled-but-never-a-cause.
func TestMonitorOnlySignal(t *testing.T) {
	w := New(Config{TripAfter: 1})
	sig := &ctlSignal{}
	sig.v.Store(int64(time.Hour))
	w.Register("rtt", 0, sig.probe)
	now := time.Now()
	for i := 0; i < 5; i++ {
		now = now.Add(time.Millisecond)
		w.sweep(now)
	}
	if w.State() != Healthy {
		t.Fatalf("monitor-only signal caused a brownout")
	}
	snap := w.Snapshot()
	if len(snap.Signals) != 1 || snap.Signals[0].Breached {
		t.Fatalf("snapshot should sample the signal un-breached: %+v", snap.Signals)
	}
}

// TestCounterAge: a stuck counter ages with the sweep clock; any advance
// resets the age; the first observation seeds (no spurious startup age).
func TestCounterAge(t *testing.T) {
	var ctr atomic.Uint64
	probe := CounterAge(ctr.Load)
	t0 := time.Now()
	if age := probe(t0); age != 0 {
		t.Fatalf("first probe should seed at zero age, got %v", age)
	}
	if age := probe(t0.Add(40 * time.Millisecond)); age != 40*time.Millisecond {
		t.Fatalf("stuck counter age = %v, want 40ms", age)
	}
	ctr.Add(1)
	if age := probe(t0.Add(50 * time.Millisecond)); age != 0 {
		t.Fatalf("advanced counter should reset age, got %v", age)
	}
	if age := probe(t0.Add(65 * time.Millisecond)); age != 15*time.Millisecond {
		t.Fatalf("age after advance = %v, want 15ms", age)
	}
}

func TestEWMA(t *testing.T) {
	var e EWMA
	if e.Load() != 0 || e.Count() != 0 {
		t.Fatal("zero EWMA should read zero")
	}
	e.Observe(100 * time.Millisecond)
	if e.Load() != 100*time.Millisecond {
		t.Fatalf("first sample should seed exactly, got %v", e.Load())
	}
	for i := 0; i < 200; i++ {
		e.Observe(10 * time.Millisecond)
	}
	if got := e.Load(); got > 11*time.Millisecond || got < 9*time.Millisecond {
		t.Fatalf("EWMA should converge to 10ms, got %v", got)
	}
	if e.Count() != 201 {
		t.Fatalf("Count = %d, want 201", e.Count())
	}
	e.Reset()
	if e.Load() != 0 || e.Count() != 0 {
		t.Fatal("Reset should forget all samples")
	}
	e.Observe(7 * time.Millisecond)
	if e.Load() != 7*time.Millisecond {
		t.Fatalf("post-Reset first sample should seed exactly, got %v", e.Load())
	}
}

// TestEWMAConcurrent hammers Observe from many goroutines (meaningful
// under -race; the CAS loop must neither lose updates nor tear floats).
func TestEWMAConcurrent(t *testing.T) {
	var e EWMA
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				e.Observe(5 * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if e.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", e.Count())
	}
	if got := e.Load(); got != 5*time.Millisecond {
		t.Fatalf("identical samples must average to themselves, got %v", got)
	}
}

// TestWatchdogLive runs the real sweep goroutine end to end: trip on a
// breached signal, observe the OnTransition callback, recover, and stop —
// the concurrency of the full path is what the race detector checks here.
func TestWatchdogLive(t *testing.T) {
	sig := &ctlSignal{}
	var transitions atomic.Int32
	w := New(Config{
		Interval:     time.Millisecond,
		TripAfter:    2,
		ClearAfter:   2,
		OnTransition: func(from, to State, cause string) { transitions.Add(1) },
		Logf:         t.Logf,
	})
	w.Register("sync", 5*time.Millisecond, sig.probe)
	w.Start()
	defer w.Stop()

	sig.v.Store(int64(time.Second))
	waitFor(t, "brownout", func() bool { return w.State() == Brownout })
	sig.v.Store(0)
	waitFor(t, "healthy again", func() bool { return w.State() == Healthy })
	if transitions.Load() < 2 {
		t.Fatalf("OnTransition fired %d times, want >= 2", transitions.Load())
	}
	snap := w.Snapshot()
	if snap.State != "healthy" || snap.Brownouts < 1 || len(snap.Transitions) < 2 {
		t.Fatalf("snapshot after recovery: %+v", snap)
	}

	w.Stop() // idempotent
	w.Stop()
}

// TestStopWithoutStart must not hang or panic.
func TestStopWithoutStart(t *testing.T) {
	New(Config{}).Stop()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
