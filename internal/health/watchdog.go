// Package health implements a gray-failure watchdog: a small state machine
// that samples liveness signals (epoch-clock advance, pepoch advance, device
// sync latency, queue dwell, probe RTT) against per-signal budgets and
// drives the instance between Healthy and Brownout. Gray failures — a disk
// whose syncs take seconds, a stalled group-commit logger, a shard that
// accepts connections but never answers — don't fail stop, so nothing in
// the crash/recovery machinery notices them; the watchdog turns "slower
// than the budget" into an explicit, observable state that admission
// control can shed on, and clears it automatically when the signal
// recovers.
//
// Hysteresis is sweep-counted on both edges: TripAfter consecutive breached
// sweeps enter brownout, ClearAfter consecutive clean sweeps leave it, so a
// single slow sync (or a single lucky fast one mid-stall) cannot flap the
// state.
package health

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// State is the watchdog's coarse verdict on the instance.
type State int32

const (
	// Healthy: every signal inside its budget; admit work normally.
	Healthy State = iota
	// Brownout: at least one signal breached its budget for TripAfter
	// consecutive sweeps; shed new work with typed errors until clear.
	Brownout
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Brownout:
		return "brownout"
	default:
		return fmt.Sprintf("health.State(%d)", int32(s))
	}
}

// Config tunes a Watchdog.
type Config struct {
	// Interval is the sweep cadence (default 5ms).
	Interval time.Duration
	// TripAfter is how many consecutive breached sweeps enter Brownout
	// (default 2).
	TripAfter int
	// ClearAfter is how many consecutive clean sweeps leave Brownout
	// (default 4 — deliberately laggier than TripAfter so recovery is
	// proven, not glimpsed).
	ClearAfter int
	// OnTransition runs on the watchdog goroutine at every state change,
	// before State reports the new state. It must not block; wire it to
	// fast flag flips (Frontend.SetBrownout) and hand anything slower to
	// another goroutine.
	OnTransition func(from, to State, cause string)
	// Logf, when non-nil, receives one line per transition.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Millisecond
	}
	if c.TripAfter <= 0 {
		c.TripAfter = 2
	}
	if c.ClearAfter <= 0 {
		c.ClearAfter = 4
	}
	return c
}

// signal is one registered liveness probe: fn reports the signal's current
// value, breached when it exceeds budget. A zero budget is monitor-only.
type signal struct {
	name   string
	budget time.Duration
	fn     func(now time.Time) time.Duration
}

// SignalStatus is one signal's sampled state inside a Snapshot.
type SignalStatus struct {
	Name     string        `json:"name"`
	Value    time.Duration `json:"value"`
	Budget   time.Duration `json:"budget"`
	Breached bool          `json:"breached"`
}

// Transition records one state change.
type Transition struct {
	At    time.Time `json:"at"`
	From  string    `json:"from"`
	To    string    `json:"to"`
	Cause string    `json:"cause"`
}

// Snapshot is a point-in-time health report, shaped for JSON exposure
// (DB.Health, bench RunResult).
type Snapshot struct {
	State       string         `json:"state"`
	Since       time.Time      `json:"since"`
	Brownouts   int64          `json:"brownouts"`
	Signals     []SignalStatus `json:"signals"`
	Transitions []Transition   `json:"transitions,omitempty"`
}

// maxTransitions bounds the retained transition history.
const maxTransitions = 64

// Watchdog sweeps registered signals on a ticker and drives the
// Healthy/Brownout state machine. Register signals before Start; State and
// Snapshot are safe from any goroutine.
type Watchdog struct {
	cfg   Config
	state atomic.Int32
	since atomic.Int64 // unix nanos of the last transition (or Start)

	mu          sync.Mutex // guards signals, transitions, sweep probe fns
	signals     []signal
	transitions []Transition
	brownouts   atomic.Int64

	breached, clean int // consecutive sweep counters; watchdog goroutine only

	startOnce, stopOnce sync.Once
	stop                chan struct{}
	done                chan struct{}
}

// New builds a watchdog; call Register for each signal, then Start.
func New(cfg Config) *Watchdog {
	return &Watchdog{
		cfg:  cfg.withDefaults(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Register adds a liveness signal: fn returns the signal's current value
// (an age, a latency); the signal breaches when the value exceeds budget.
// A zero budget registers the signal monitor-only — sampled into snapshots,
// never a brownout cause. fn is called on the watchdog goroutine and from
// Snapshot, so it must be cheap and concurrency-safe.
func (w *Watchdog) Register(name string, budget time.Duration, fn func(now time.Time) time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.signals = append(w.signals, signal{name: name, budget: budget, fn: fn})
}

// Start launches the sweep goroutine. It is idempotent.
func (w *Watchdog) Start() {
	w.startOnce.Do(func() {
		w.since.Store(time.Now().UnixNano())
		go func() {
			defer close(w.done)
			t := time.NewTicker(w.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case now := <-t.C:
					w.sweep(now)
				case <-w.stop:
					return
				}
			}
		}()
	})
}

// Stop halts sweeping. The state freezes at its last value. Idempotent;
// safe even if Start was never called.
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	w.startOnce.Do(func() { close(w.done) }) // never started: nothing to wait for
	<-w.done
}

// State returns the current verdict without blocking.
func (w *Watchdog) State() State { return State(w.state.Load()) }

// Since returns when the current state was entered.
func (w *Watchdog) Since() time.Time { return time.Unix(0, w.since.Load()) }

// Brownouts returns how many Healthy→Brownout transitions have occurred.
func (w *Watchdog) Brownouts() int64 { return w.brownouts.Load() }

// sweep samples every signal once and advances the hysteresis counters.
func (w *Watchdog) sweep(now time.Time) {
	statuses := w.sample(now)
	cause := ""
	for _, s := range statuses {
		if s.Breached {
			cause = fmt.Sprintf("%s %v > budget %v", s.Name, s.Value.Round(time.Microsecond), s.Budget)
			break
		}
	}
	if cause != "" {
		w.breached++
		w.clean = 0
		if w.State() == Healthy && w.breached >= w.cfg.TripAfter {
			w.transition(now, Brownout, cause)
		}
		return
	}
	w.clean++
	w.breached = 0
	if w.State() == Brownout && w.clean >= w.cfg.ClearAfter {
		w.transition(now, Healthy, "all signals within budget")
	}
}

// sample evaluates every registered signal under the lock (probe fns may
// keep per-signal state, and Snapshot races the sweep goroutine here).
func (w *Watchdog) sample(now time.Time) []SignalStatus {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]SignalStatus, 0, len(w.signals))
	for _, s := range w.signals {
		v := s.fn(now)
		out = append(out, SignalStatus{
			Name:     s.name,
			Value:    v,
			Budget:   s.budget,
			Breached: s.budget > 0 && v > s.budget,
		})
	}
	return out
}

// transition records and announces a state change, publishing the new state
// last: a reader that sees State() == to also sees the history entry, the
// brownout count and the OnTransition side effects.
func (w *Watchdog) transition(now time.Time, to State, cause string) {
	from := w.State()
	w.breached, w.clean = 0, 0
	if to == Brownout {
		w.brownouts.Add(1)
	}
	w.mu.Lock()
	w.transitions = append(w.transitions, Transition{At: now, From: from.String(), To: to.String(), Cause: cause})
	if len(w.transitions) > maxTransitions {
		w.transitions = w.transitions[len(w.transitions)-maxTransitions:]
	}
	w.mu.Unlock()
	if w.cfg.Logf != nil {
		w.cfg.Logf("health: %v -> %v (%s)", from, to, cause)
	}
	if w.cfg.OnTransition != nil {
		w.cfg.OnTransition(from, to, cause)
	}
	w.since.Store(now.UnixNano())
	w.state.Store(int32(to))
}

// Transitions returns a copy of the retained transition history.
func (w *Watchdog) Transitions() []Transition {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Transition(nil), w.transitions...)
}

// Snapshot samples every signal now and returns the full health report.
func (w *Watchdog) Snapshot() Snapshot {
	return Snapshot{
		State:       w.State().String(),
		Since:       w.Since(),
		Brownouts:   w.brownouts.Load(),
		Signals:     w.sample(time.Now()),
		Transitions: w.Transitions(),
	}
}

// CounterAge adapts a monotonically advancing counter (an epoch clock, a
// pepoch) into a watchdog signal: the returned probe reports how long the
// counter has been stuck at its current value. The first call seeds the
// baseline, so a freshly started instance reads as just-advanced.
func CounterAge(fn func() uint64) func(now time.Time) time.Duration {
	var (
		mu     sync.Mutex
		last   uint64
		lastAt time.Time
		init   bool
	)
	return func(now time.Time) time.Duration {
		mu.Lock()
		defer mu.Unlock()
		v := fn()
		if !init || v != last {
			last, lastAt, init = v, now, true
		}
		return now.Sub(lastAt)
	}
}
