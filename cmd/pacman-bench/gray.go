package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pacman"
	"pacman/internal/harness"
	"pacman/internal/simdisk"
	"pacman/internal/torture"
	"pacman/internal/workload"
)

// grayExp measures behavior under gray failures — devices that get slow or
// hang without fail-stopping. Deadline-bounded traffic runs against a
// healthy baseline and against injected slow-sync and hung-sync devices;
// each scenario reports client-observed throughput, the deadline-miss and
// brownout-shed split, and watchdog activity. A seeded gray torture sweep
// (watchdog detection, recovery, durability oracle across a final crash)
// closes the experiment.
func grayExp(w io.Writer, s harness.Scale) error {
	const deadline = 50 * time.Millisecond
	dur := s.Duration
	if dur > 3*time.Second {
		dur = 3 * time.Second
	}
	type scenario struct {
		name  string
		fault *simdisk.DeviceFaults
	}
	scenarios := []scenario{
		{"none", nil},
		{"slow-sync", &simdisk.DeviceFaults{SyncDelay: 40 * time.Millisecond}},
		{"hung-sync", &simdisk.DeviceFaults{HangSyncAfter: 1}},
	}

	fmt.Fprintln(w, "=== Gray failures: deadline-bounded traffic vs slow and hung devices ===")
	fmt.Fprintf(w, "smallbank/CL, %d clients, %v deadline, %v per scenario\n", s.Workers, deadline, dur)
	for _, sc := range scenarios {
		spec := workload.Spec(workload.NewSmallbank(workload.DefaultSmallbankConfig()))
		bp := pacman.Blueprint{Tables: spec.Tables, Procedures: spec.Procs, Seed: spec.Seed}
		db, err := pacman.Launch(bp, pacman.Options{
			Logging:       pacman.CommandLogging,
			EpochInterval: time.Millisecond,
			Health: pacman.HealthConfig{
				Interval: 2 * time.Millisecond, TripAfter: 2, ClearAfter: 4,
				SyncLatencyBudget: 20 * time.Millisecond,
			},
		})
		if err != nil {
			return err
		}
		fe := db.MustFrontend(pacman.FrontendConfig{})

		var plan *simdisk.FaultPlan
		if sc.fault != nil {
			plan = &simdisk.FaultPlan{Devs: map[string]*simdisk.DeviceFaults{}}
			for _, dev := range db.Devices() {
				plan.Devs[dev.Name()] = sc.fault
			}
			plan.Arm(db.Devices()...)
		}

		var committed, missed, shed, other atomic.Int64
		var stop atomic.Bool
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < s.Workers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(c)*104729 + 1))
				const window = 32
				inflight := make([]*pacman.Future, 0, window)
				reap := func(f *pacman.Future) {
					switch _, err := f.Wait(); {
					case err == nil:
						committed.Add(1)
					case errors.Is(err, pacman.ErrDeadlineExceeded):
						missed.Add(1)
					case errors.Is(err, pacman.ErrBrownout):
						shed.Add(1)
					default:
						other.Add(1)
					}
				}
				for !stop.Load() {
					if fe.Brownout() {
						// Shed fast path: trickle so the watchdog keeps
						// seeing sync evidence, don't spin on rejections.
						time.Sleep(time.Millisecond)
					}
					acct := 1 + rng.Int63n(10_000)
					amt := pacman.A(pacman.F(float64(1 + rng.Int63n(99))))
					args := pacman.Args{pacman.A(pacman.I(acct)), amt}
					inflight = append(inflight, fe.SubmitWithin("DepositChecking", args, deadline))
					if len(inflight) == window {
						reap(inflight[0])
						inflight = inflight[1:]
					}
				}
				for _, f := range inflight {
					reap(f)
				}
			}(c)
		}
		time.Sleep(dur)
		stop.Store(true)
		wg.Wait()
		elapsed := time.Since(start)
		snap := db.Health()
		if plan != nil {
			plan.Disarm() // heal hung syncs so Close joins the pipeline cleanly
		}
		fe.Close()
		db.Close()

		n := committed.Load()
		total := n + missed.Load() + shed.Load() + other.Load()
		missPct := 0.0
		if total > 0 {
			missPct = 100 * float64(missed.Load()) / float64(total)
		}
		fmt.Fprintf(w, "%-9s %8.0f tps  %6d committed  %6d deadline-missed (%.1f%%)  %6d brownout-shed  %2d brownouts  state=%s\n",
			sc.name, float64(n)/elapsed.Seconds(), n, missed.Load(), missPct, shed.Load(), snap.Brownouts, snap.State)
	}

	// Torture phase: seeded gray cycles with the full oracle — watchdog
	// must detect each injected slow fault, recover after it lifts, and
	// durability must hold across the ending crash. A gray violation's
	// repro line reruns this phase with its seed and shape.
	seeds, cycles, txns := 2, 2, 800
	if !s.Short {
		seeds, cycles, txns = 4, 3, 2000
	}
	var total torture.Stats
	start := time.Now()
	for _, cfg := range tortureRuns(s, seeds, cycles, txns, false) {
		st, err := torture.RunGray(cfg)
		if err != nil {
			fmt.Fprintf(w, "gray torture seed %d: FAILED\n%v\n", cfg.Seed, err)
			return err
		}
		total.Cycles += st.Cycles
		total.Acked += st.Acked
		total.Maybe += st.Maybe
		total.DeadlineExpired += st.DeadlineExpired
		total.Shed += st.Shed
		total.Brownouts += st.Brownouts
		total.Stamps += st.Stamps
	}
	fmt.Fprintf(w, "gray torture: %d cycles, %d acked, %d maybe, %d deadline-expired, %d shed, %d brownouts, %d stamps verified (%v) — oracle green\n",
		total.Cycles, total.Acked, total.Maybe, total.DeadlineExpired, total.Shed, total.Brownouts, total.Stamps, time.Since(start).Round(time.Millisecond))
	return nil
}
