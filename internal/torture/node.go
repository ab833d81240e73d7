package torture

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"pacman"
	"pacman/internal/simdisk"
	"pacman/internal/wal"
)

// node is the system under test of the single-instance shapes: one pacman
// instance on two devices, crashed and restarted in place every cycle. db is
// nil while the instance is down.
type node struct {
	bp      pacman.Blueprint
	health  pacman.HealthConfig
	db      *pacman.DB
	devices []*pacman.Device
}

// openNode launches the instance. stampTxns sizes the ledger (see
// engine.ledger); health is the watchdog config every incarnation serves
// under (zero means the production defaults).
func openNode(e *engine, stampTxns int, health pacman.HealthConfig) (*node, error) {
	bp, err := e.blueprint(stampTxns)
	if err != nil {
		return nil, err
	}
	db, err := pacman.Launch(bp, pacman.Options{
		Logging:       e.cfg.Logging,
		Devices:       2,
		EpochInterval: time.Millisecond,
		MaxRetries:    maxRetries,
		Health:        health,
	})
	if err != nil {
		return nil, err
	}
	n := &node{bp: bp, health: health, db: db, devices: db.Devices()}
	e.onClose(func() {
		if n.db != nil {
			n.db.Close()
		}
	})
	return n, nil
}

// crash power-fails the instance: outstanding futures resolve ErrCrashed
// and the devices lose their unsynced tails.
func (n *node) crash() {
	n.db.Crash()
	n.db = nil
}

func (n *node) exec(name string, args pacman.Args) (pacman.TS, error) {
	fe := n.db.MustFrontend(pacman.FrontendConfig{Workers: 1})
	defer fe.Close()
	return fe.Submit(name, args).Wait()
}

// recover is one cycle's recovery phase: Restart, possibly under an armed
// fault plan; an injected crash re-enters Restart from the crashed state.
// The last attempt always runs clean, so only a genuine bug can fail it.
func (n *node) recover(e *engine, cycle int) (*pacman.RecoveryResult, error) {
	const maxAttempts = 4
	force := e.cfg.ForceRecoveryCrash && cycle == 0
	for attempt := 0; ; attempt++ {
		var rplan *simdisk.FaultPlan
		if attempt < maxAttempts-1 && (e.rng.Intn(100) < recoveryCrashPct || force && attempt == 0) {
			rplan = recoveryPlan(e.rng, n.devices, force && attempt == 0)
			e.logPlan(fmt.Sprintf("recovery attempt %d", attempt), cycle, rplan)
			rplan.Arm(n.devices...)
		} else {
			// Clean attempt: prove tail repair converges before Restart runs
			// it for real (double repair is a no-op on round two).
			pe, err := wal.ReadPepoch(n.devices[0])
			if err != nil && !errors.Is(err, simdisk.ErrNotExist) {
				return nil, e.violation(cycle, fmt.Sprintf("pepoch unreadable after crash: %v", err))
			}
			if _, err := wal.RepairTail(n.devices, pe); err != nil {
				return nil, e.violation(cycle, fmt.Sprintf("tail repair failed: %v", err))
			}
			if st, err := wal.RepairTail(n.devices, pe); err != nil || !st.Zero() {
				return nil, e.violation(cycle, fmt.Sprintf("tail repair did not converge: second pass %+v, err %v", st, err))
			}
		}

		db, res, err := pacman.Restart(n.devices, n.bp, pacman.RecoverConfig{
			Threads: recoveryThreads,
			Serve:   pacman.Options{MaxRetries: maxRetries, Health: n.health},
		})
		if rplan != nil {
			// Close the race between Restart finishing and the armed plan
			// tripping on the first post-restart flush: a tripped plan means
			// the instance is dead no matter what Restart returned.
			rplan.Disarm()
			if rplan.Tripped() {
				if err == nil {
					db.Crash()
				}
				for _, d := range n.devices {
					d.Crash()
				}
				e.st.RecoveryCrashes++
				continue
			}
			if err != nil && errors.Is(err, simdisk.ErrInjectedRead) {
				e.st.TransientReadFaults++
				continue
			}
		}
		if err != nil {
			return nil, e.violation(cycle, fmt.Sprintf("Restart failed with no fault armed: %v", err))
		}
		n.db = db
		e.st.Replayed = res.Entries
		return res, e.violation(cycle, e.oracle.verify(db, res)...)
	}
}

// armServe derives and arms the power-fail plan of a cycle's serve phase,
// then draws whether the cycle checkpoints mid-traffic. tripped closes when
// the plan fires (never, on a clean-budget cycle); disarm must follow.
func (e *engine) armServe(cycle int, devices []*pacman.Device) (tripped chan struct{}, ckpt bool, disarm func()) {
	plan := servePlan(e.rng, devices)
	tripped = make(chan struct{})
	e.logPlan("serve", cycle, plan)
	if plan == nil {
		return tripped, e.rng.Intn(100) < checkpointPct, func() {}
	}
	plan.OnTrip = func(dev, op string) { close(tripped) }
	plan.Arm(devices...)
	return tripped, e.rng.Intn(100) < checkpointPct, func() {
		if plan.Tripped() {
			e.st.ServeTrips++
		}
		plan.Disarm()
	}
}

// checkpoint takes the mid-traffic checkpoint, inside the fault window.
func (e *engine) checkpoint(db *pacman.DB, cycle int) {
	time.Sleep(time.Duration(1+cycle%3) * time.Millisecond)
	if err := db.Checkpoint(); err == nil {
		e.st.Checkpoints++
	}
}

// inproc is Run's shape: load through a Frontend until the armed plan trips
// or the budget runs out, with a mid-traffic checkpoint and a concurrent
// snapshot scanner inside the fault window, then a power failure.
type inproc struct{ *node }

func openInproc(e *engine) (target, error) {
	n, err := openNode(e, e.cfg.TxnsPerCycle, pacman.HealthConfig{})
	if err != nil {
		return nil, err
	}
	return inproc{n}, nil
}

func (n inproc) serve(e *engine, cycle int) ([]*journal, error) {
	db := n.db
	tripped, ckpt, disarm := e.armServe(cycle, n.devices)
	defer disarm()
	fe := db.MustFrontend(pacman.FrontendConfig{Workers: e.cfg.Workers})
	l := e.drive(cycle, frontendInFlight, func(_ int, name string, args pacman.Args) waiter {
		return fe.Submit(name, args)
	}, nil)

	// Concurrent snapshot-scan oracle: while traffic (and possibly a
	// checkpoint) runs, a scanner pins released cuts and checks the two
	// promises only a consistent immutable snapshot can keep — ledger pairs
	// are never torn at the cut, and re-reading the same view reproduces
	// the identical data. It runs right through the power failure: views
	// over the frozen post-crash state must hold the same promises.
	var scanStop atomic.Bool
	scanDone := make(chan struct{})
	var scanFaults []string
	go func() {
		defer close(scanDone)
		for !scanStop.Load() {
			if f := e.snapScanOnce(db); f != "" {
				scanFaults = append(scanFaults, f)
				return
			}
			e.st.SnapScans++
			// One pass per epoch or so; back-to-back scanning would only
			// re-pin the same cut while starving the traffic it audits.
			time.Sleep(time.Millisecond)
		}
	}()

	if ckpt {
		e.checkpoint(db, cycle)
	}
	select {
	case <-tripped: // power failed mid-traffic: crash now
	case <-l.done:
	}
	l.stop.Store(true)
	n.crash() // resolves outstanding futures; clients drain on that
	<-l.done
	fe.Close()
	scanStop.Store(true)
	<-scanDone
	return l.js, e.violation(cycle, scanFaults...)
}

// snapScanOnce pins one snapshot view of the torture ledger and verifies
// the cut. TortureStamp writes the same value to both rows of a pair in one
// transaction, so a consistent cut can never observe a half-written pair —
// torn here means snapshot reads leak uncommitted or unreleased state. The
// second pass re-reads the same view: a released epoch is immutable, so any
// difference means the cut moved under a pinned view. Returns "" when the
// cut holds, a fault description otherwise.
func (e *engine) snapScanOnce(db *pacman.DB) string {
	v, err := db.SnapshotView(0)
	if err != nil {
		return fmt.Sprintf("snapshot view: %v", err)
	}
	defer v.Close()
	ledger := db.Table(ledgerTable)
	vals := make(map[uint64]int64, 2*e.pairs)
	v.Scan(ledger, 0, ^uint64(0), func(k uint64, row pacman.Tuple) bool {
		vals[k] = row[1].Int()
		return true
	})
	for i := 0; i < e.pairs; i++ {
		a, b := vals[pairKeyA(i)], vals[pairKeyB(i)]
		if a != b {
			return fmt.Sprintf("snapshot scan at epoch %d observed torn ledger pair %d: a=%d b=%d", v.Epoch(), i, a, b)
		}
	}
	diff := ""
	v.Scan(ledger, 0, ^uint64(0), func(k uint64, row pacman.Tuple) bool {
		if row[1].Int() != vals[k] {
			diff = fmt.Sprintf("pinned view at epoch %d not immutable: ledger key %d read %d then %d", v.Epoch(), k, vals[k], row[1].Int())
			return false
		}
		delete(vals, k)
		return true
	})
	if diff != "" {
		return diff
	}
	if len(vals) != 0 {
		return fmt.Sprintf("pinned view at epoch %d not immutable: %d ledger rows vanished on re-scan", v.Epoch(), len(vals))
	}
	return ""
}
