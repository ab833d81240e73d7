package harness

import (
	"fmt"
	"io"
	"runtime"

	"pacman/internal/wal"
	"pacman/internal/workload"
)

// FigScaling is the core-scaling matrix of the commit pipeline: committed
// throughput as the frontend worker pool grows from 1 toward NumCPU (per-core
// submission queues with work stealing), and as the device count grows (one
// logger goroutine per device, each encoding and syncing its own batches;
// one pepoch goroutine releases every logger's commits in one pass). It
// measures the whole pipeline, not any one stage of it.
//
// Rows are key=value series (like FigThroughput) so BENCH_scaling.json
// carries a machine-readable matrix. The speedup column is relative to the
// 1-worker point of the same workload/logging pair; the summary annotates
// flat spots — ladder steps that gained <10% — honestly, including the
// degenerate single-core case where the whole ladder oversubscribes one
// core and a flat curve is the expected outcome, not a regression.
func FigScaling(w io.Writer, s Scale) error {
	cores := runtime.GOMAXPROCS(0)
	workerLadder := scalingLadder(cores, s.Short)
	deviceLadder := []int{1, 2, 4, 8}
	if s.Short {
		deviceLadder = []int{1, 2}
	}
	maxWorkers := workerLadder[len(workerLadder)-1]

	fmt.Fprintln(w, "=== Scaling: commit pipeline vs worker and device count ===")
	fmt.Fprintf(w, "(GOMAXPROCS=%d; worker ladder %v at 2 devices, device ladder %v at %d workers;\n",
		cores, workerLadder, deviceLadder, maxWorkers)
	fmt.Fprintf(w, " clients = 4x workers, %v per run; steals = cross-queue work steals)\n\n", s.Duration)

	type curve struct {
		wl   WorkloadKind
		kind wal.Kind
	}
	tps := map[curve]map[int]float64{}
	for _, wl := range []WorkloadKind{Smallbank, TPCC} {
		for _, kind := range []wal.Kind{wal.Command, wal.Physical, wal.Logical} {
			c := curve{wl, kind}
			tps[c] = map[int]float64{}
			for _, workers := range workerLadder {
				res, err := scalingRun(s, wl, kind, workers, 2)
				if err != nil {
					return err
				}
				tps[c][workers] = res.TPS
				fmt.Fprintf(w, "workload=%-9s logging=%-3v workers=%-2d devices=2 tps=%-9.0f speedup=%-5.2f steals=%-6d allocs_txn=%.1f\n",
					wl, kind, workers, res.TPS, res.TPS/tps[c][workerLadder[0]],
					res.Steals, res.AllocsPerTxn())
			}
			fmt.Fprintln(w)
		}
	}

	// Device ladder: command logging on Smallbank at the widest pool — the
	// configuration where encode striping and per-device loggers have the
	// most batch volume to spread.
	for _, devices := range deviceLadder {
		res, err := scalingRun(s, Smallbank, wal.Command, maxWorkers, devices)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "workload=%-9s logging=%-3v workers=%-2d devices=%d tps=%-9.0f steals=%-6d allocs_txn=%.1f\n",
			Smallbank, wal.Command, maxWorkers, devices, res.TPS, res.Steals, res.AllocsPerTxn())
	}
	fmt.Fprintln(w)

	// Summary: per-curve speedup at the widest pool, with flat spots named.
	for _, wl := range []WorkloadKind{Smallbank, TPCC} {
		for _, kind := range []wal.Kind{wal.Command, wal.Physical, wal.Logical} {
			c := curve{wl, kind}
			base := tps[c][workerLadder[0]]
			fmt.Fprintf(w, "summary workload=%-9s logging=%-3v speedup_at_%dw=%.2f flat=%s\n",
				wl, kind, maxWorkers, tps[c][maxWorkers]/base,
				flatSpots(workerLadder, tps[c]))
		}
	}
	if cores == 1 {
		fmt.Fprintf(w, "\nnote: GOMAXPROCS=1 — every ladder step oversubscribes a single core, so a flat\n"+
			"worker curve is the expected shape here; the per-core pipeline shows its spread\n"+
			"(speedup toward NumCPU) only on a multicore host.\n")
	}
	return nil
}

// scalingRun executes one cell of the scaling matrix.
func scalingRun(s Scale, wl WorkloadKind, kind wal.Kind, workers, devices int) (*RunResult, error) {
	cfg := s.baseRun(kind, devices)
	cfg.Workers = workers
	cfg.Clients = 4 * workers
	if wl == Smallbank {
		cfg.Workload = Smallbank
		cfg.TPCC = workload.TPCCConfig{}
		cfg.SB = workload.DefaultSmallbankConfig()
	}
	return Run(cfg, true)
}

// scalingLadder returns the worker counts to sweep: powers of two from 1 up
// to NumCPU (always at least through 4, so oversubscription is visible even
// on small hosts), with NumCPU itself as the final rung when it is not a
// power of two. Short mode pins the reduced smoke matrix 1/2/4.
func scalingLadder(cores int, short bool) []int {
	if short {
		return []int{1, 2, 4}
	}
	top := cores
	if top < 4 {
		top = 4
	}
	var ladder []int
	for n := 1; n <= top; n *= 2 {
		ladder = append(ladder, n)
	}
	if last := ladder[len(ladder)-1]; cores > last {
		ladder = append(ladder, cores)
	}
	return ladder
}

// flatSpots names the ladder steps that gained less than 10% throughput —
// the honest annotation of where the curve stopped climbing.
func flatSpots(ladder []int, tps map[int]float64) string {
	out := ""
	for i := 1; i < len(ladder); i++ {
		prev, cur := tps[ladder[i-1]], tps[ladder[i]]
		if prev > 0 && cur < prev*1.10 {
			if out != "" {
				out += ","
			}
			out += fmt.Sprintf("%d->%d", ladder[i-1], ladder[i])
		}
	}
	if out == "" {
		return "none"
	}
	return out
}
