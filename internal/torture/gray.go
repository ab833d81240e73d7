// Gray-failure torture: the faults in this file never kill anything — a
// device gets slow, briefly stuck, or hung outright while the instance keeps
// running. The run asserts the three promises gray-failure resilience makes:
//
//   - Fail fast: every request carries a deadline, and no future outlives it
//     by more than a grace window — slow durability turns into a prompt,
//     typed ErrDeadlineExceeded, never a silent hang (liveness oracle).
//   - Detect: the health watchdog enters brownout within a budget after a
//     gray fault is armed, and returns to healthy within a budget after the
//     device comes back (detection oracle).
//   - Stay correct: everything acknowledged under the gray fault, through
//     the brownout, and across the crash that ends the cycle is durable —
//     the same oracle that audits the power-fail cycles absorbs the gray
//     journals too (durability oracle).
//
// Each cycle still ends in a full power failure and recovery, so the gray
// run also proves slow-fault handling composes with crash recovery.

package torture

import (
	"fmt"
	"time"

	"pacman"
)

const (
	// grayDeadline is the per-request deadline every gray submission carries.
	grayDeadline = 150 * time.Millisecond
	// grayBudget bounds how long the watchdog may take to enter brownout
	// after a gray fault is armed, and to return to healthy after it is
	// disarmed — wall clock, generous so the race detector and loaded CI
	// cannot flake it; nominal detection is a few sweep intervals.
	grayBudget = 5 * time.Second
)

// grayHealth is the tight watchdog tuning a gray run serves under: sweeps
// every 2ms against a 20ms sync budget, trip after 2 consecutive breaches,
// clear after 4 consecutive clean sweeps. The budgets are far below the
// production defaults (which are sized never to trip in ordinary tests) and
// far above anything the fault-free simulator produces, so brownout here
// means the armed gray fault — or a genuine stall — was observed.
func grayHealth() pacman.HealthConfig {
	return pacman.HealthConfig{
		Interval:          2 * time.Millisecond,
		TripAfter:         2,
		ClearAfter:        4,
		SyncLatencyBudget: 20 * time.Millisecond,
		PepochStallBudget: 150 * time.Millisecond,
		EpochStallBudget:  500 * time.Millisecond,
		QueueStallBudget:  250 * time.Millisecond,
	}
}

// grayTarget is RunGray's shape: deadline-bounded traffic starts healthy,
// the cycle's gray plan is armed mid-traffic, the watchdog must trip
// (detection oracle), the plan is disarmed and the watchdog must clear, and
// the cycle ends in the usual power failure so recovery is exercised too.
// Every incarnation serves under grayHealth, so a fault armed in a later
// cycle is still detected within the budget.
type grayTarget struct{ *node }

func openGray(e *engine) (target, error) {
	// Oversize the stamp ledger: a gray cycle's length is set by the
	// detection/recovery assertions, not the budget — the post-budget
	// trickle (see load.admit) can push submissions well past TxnsPerCycle.
	n, err := openNode(e, 4*e.cfg.TxnsPerCycle, grayHealth())
	if err != nil {
		return nil, err
	}
	return grayTarget{n}, nil
}

func (g grayTarget) serve(e *engine, cycle int) ([]*journal, error) {
	db := g.db
	plan, flavor := grayPlan(e.rng, g.devices)
	e.logPlan("gray("+flavor+")", cycle, plan)
	fe := db.MustFrontend(pacman.FrontendConfig{Workers: e.cfg.Workers})
	l := e.drive(cycle, frontendInFlight, func(_ int, name string, args pacman.Args) waiter {
		return fe.SubmitWithin(name, args, grayDeadline)
	}, fe.Brownout)

	// Let healthy traffic flow first so the trip below is attributable to
	// the armed fault, not startup.
	time.Sleep(10 * time.Millisecond)

	before := db.Health().Brownouts
	plan.Arm(g.devices...)
	var faults []string
	if !waitUntil(grayBudget, func() bool { return db.Health().Brownouts > before }) {
		faults = []string{fmt.Sprintf("watchdog failed to enter brownout within %v of arming a gray fault (health %+v) under %s",
			grayBudget, db.Health(), flavor)}
	} else {
		// Hold the fault past the request deadline so expiry actually fires
		// under impairment — including the timer path for futures trapped in
		// a flush whose sync is hung, which nothing else can resolve.
		time.Sleep(2 * grayDeadline)
	}
	// The device "comes back": hung syncs complete, latency returns to
	// normal, and the watchdog must clear on its own.
	plan.Disarm()
	if faults == nil && !waitUntil(grayBudget, func() bool { return db.Health().State == "healthy" }) {
		faults = []string{fmt.Sprintf("watchdog failed to return to healthy within %v of the gray fault clearing (health %+v) under %s",
			grayBudget, db.Health(), flavor)}
	}
	e.st.Brownouts += db.Health().Brownouts - before

	l.stop.Store(true)
	g.crash() // resolves outstanding futures; clients drain on that
	<-l.done
	fe.Close()
	return l.js, e.violation(cycle, faults...)
}

// waitUntil polls cond every 2ms until it holds or the budget elapses.
func waitUntil(budget time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}
