package main

import (
	"fmt"
	"io"
	"time"

	"pacman"
	"pacman/internal/harness"
	"pacman/internal/torture"
)

// tortureRuns derives the torture runs an experiment sweeps from its
// defaults and the -seed/-iters/-cycles/-txns/-force flags. Without -seed it
// sweeps seeds from 1, forcing a crash mid-Restart on the first when
// forceFirst; with -seed it reruns exactly the shape an oracle violation
// printed — the force flag verbatim, because the fault-plan RNG stream
// depends on it.
func tortureRuns(s harness.Scale, seeds, cycles, txns int, forceFirst bool) []torture.Config {
	if s.TortureIters > 0 {
		seeds = s.TortureIters
	}
	if s.TortureCycles > 0 {
		cycles = s.TortureCycles
	}
	if s.TortureTxns > 0 {
		txns = s.TortureTxns
	}
	base := s.TortureSeed
	if base == 0 {
		base = 1
	}
	runs := make([]torture.Config, seeds)
	for i := range runs {
		force := forceFirst && i == 0
		if s.TortureSeed != 0 {
			force = s.TortureForce
		}
		runs[i] = torture.Config{
			Seed:               base + int64(i),
			Cycles:             cycles,
			TxnsPerCycle:       txns,
			Workers:            s.Workers,
			Clients:            s.Workers,
			ForceRecoveryCrash: force,
		}
	}
	return runs
}

// tortureExp runs the crash-injection torture matrix: seeded
// crash→Restart→serve cycles under every logging kind (plus a TPC-C run
// under command logging), verifying the durability/atomicity oracle after
// every recovery. It is the reproduction entry point printed by in-process
// oracle violations: `pacman-bench -exp torture -seed <s>` re-derives the
// exact fault plans of the failing run (-iters controls how many seeds are
// swept starting there).
func tortureExp(w io.Writer, s harness.Scale) error {
	seeds, cycles, txns := 10, 4, 400
	if s.Short {
		seeds, cycles, txns = 3, 3, 250
	}
	runs := tortureRuns(s, seeds, cycles, txns, true)

	fmt.Fprintln(w, "=== Crash-injection torture: fault plans, oracle, crash-during-recovery ===")
	fmt.Fprintf(w, "seeds %d..%d, %d cycles x %d txns per run\n",
		runs[0].Seed, runs[len(runs)-1].Seed, runs[0].Cycles, runs[0].TxnsPerCycle)
	type row struct {
		kind     pacman.LogKind
		workload string
	}
	rows := []row{
		{pacman.CommandLogging, torture.WorkloadSmallbank},
		{pacman.PhysicalLogging, torture.WorkloadSmallbank},
		{pacman.LogicalLogging, torture.WorkloadSmallbank},
		{pacman.CommandLogging, torture.WorkloadTPCC},
	}
	for _, r := range rows {
		var total torture.Stats
		start := time.Now()
		for _, cfg := range runs {
			cfg.Logging, cfg.Workload = r.kind, r.workload
			st, err := torture.Run(cfg)
			if err != nil {
				fmt.Fprintf(w, "%v/%-9s seed %d: FAILED\n%v\n", r.kind, r.workload, cfg.Seed, err)
				return err
			}
			total.Cycles += st.Cycles
			total.Acked += st.Acked
			total.AckedLogged += st.AckedLogged
			total.Maybe += st.Maybe
			total.Aborted += st.Aborted
			total.ServeTrips += st.ServeTrips
			total.RecoveryCrashes += st.RecoveryCrashes
			total.TransientReadFaults += st.TransientReadFaults
			total.Checkpoints += st.Checkpoints
			total.SnapScans += st.SnapScans
			total.Stamps += st.Stamps
		}
		fmt.Fprintf(w, "%v/%-9s %4d cycles: %6d acked, %5d maybe, %3d mid-serve trips, %3d crashes mid-recovery, %3d transient read faults, %3d ckpts, %5d snap scans, %5d stamps verified (%v)\n",
			r.kind, r.workload, total.Cycles, total.Acked, total.Maybe,
			total.ServeTrips, total.RecoveryCrashes, total.TransientReadFaults,
			total.Checkpoints, total.SnapScans, total.Stamps, time.Since(start).Round(time.Millisecond))
	}
	fmt.Fprintln(w, "oracle: every acknowledged commit read back; no partial transaction visible; pepoch/resume/checkpoint invariants held; snapshot scans observed no torn pair and no mutable cut")
	return nil
}
