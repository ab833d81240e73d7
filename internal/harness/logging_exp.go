package harness

import (
	"fmt"
	"io"
	"time"

	"pacman/internal/simdisk"
	"pacman/internal/wal"
	"pacman/internal/workload"
)

// Scale sets experiment sizes. Short is the bench/test preset (seconds per
// experiment); the full preset takes minutes.
type Scale struct {
	Short bool
	// Duration of each logging run.
	Duration time.Duration
	// Workers is the OLTP worker count.
	Workers int
	// Threads is the recovery-thread sweep.
	Threads []int
	// Warehouses scales TPC-C.
	Warehouses int
	// TortureSeed is the first seed the torture, net and gray experiments'
	// torture runs sweep (pacman-bench -seed; 0 means 1). An oracle
	// violation prints the failing seed and experiment — rerunning with them
	// re-derives the identical fault plans.
	TortureSeed int64
	// TortureIters is how many consecutive seeds those torture runs sweep
	// (pacman-bench -iters; 0 means the experiment's default).
	TortureIters int
	// TortureCycles/TortureTxns override the torture run shape
	// (pacman-bench -cycles/-txns; 0 means the scale default). A violation
	// report prints the exact shape to pass back, because the fault-plan
	// stream depends on it.
	TortureCycles, TortureTxns int
	// TortureForce pins ForceRecoveryCrash when reproducing with an
	// explicit -seed (pacman-bench -force); sweeps without -seed force the
	// first seed only.
	TortureForce bool
}

// DefaultScale returns the preset for the given mode.
func DefaultScale(short bool) Scale {
	if short {
		return Scale{
			Short:      true,
			Duration:   1500 * time.Millisecond,
			Workers:    4,
			Threads:    []int{1, 2, 4, 8},
			Warehouses: 2,
		}
	}
	return Scale{
		Duration:   10 * time.Second,
		Workers:    8,
		Threads:    []int{1, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40},
		Warehouses: 4,
	}
}

// ScaledSSD models a device whose bandwidth is proportionally reduced so
// that tuple-level logging saturates it at bench-scale throughput, the way
// the paper's 520 MB/s SSDs saturate at server-scale throughput (Appendix
// D). The shape of Figures 11-12 and Tables 2-3 depends only on the ratio
// between log production rate and device bandwidth.
func ScaledSSD() simdisk.Config {
	return simdisk.Config{
		ReadBandwidth:  80 << 20,
		WriteBandwidth: 40 << 20,
		SyncLatency:    300 * time.Microsecond,
	}
}

func (s Scale) tpcc() workload.TPCCConfig {
	cfg := workload.DefaultTPCCConfig()
	cfg.Warehouses = s.Warehouses
	cfg.DisableInserts = true // Section 6.1.1
	return cfg
}

func (s Scale) baseRun(kind wal.Kind, devices int) RunConfig {
	return RunConfig{
		Workload:     TPCC,
		TPCC:         s.tpcc(),
		Logging:      kind,
		Devices:      devices,
		DeviceConfig: ScaledSSD(),
		Workers:      s.Workers,
		Duration:     s.Duration,
	}
}

// Fig11 reproduces Figure 11: TPC-C throughput and latency under PL / LL /
// CL / OFF with periodic checkpointing, on one or two devices.
func Fig11(w io.Writer, s Scale, devices int) error {
	fmt.Fprintf(w, "=== Figure 11%s: logging overhead during transaction processing (%d device(s)) ===\n",
		map[int]string{1: "a", 2: "b"}[devices], devices)
	fmt.Fprintf(w, "TPC-C, %d warehouses, %d workers, %v run, checkpoint every 1/3 of the run\n\n",
		s.Warehouses, s.Workers, s.Duration)
	for _, kind := range []wal.Kind{wal.Physical, wal.Logical, wal.Command, wal.Off} {
		cfg := s.baseRun(kind, devices)
		cfg.CheckpointEvery = s.Duration / 3
		res, err := Run(cfg, true)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: throughput %.0f tps, latency mean %v p99 %v\n",
			kind, res.TPS, res.Latency.Mean().Round(time.Microsecond),
			res.Latency.Percentile(99).Round(time.Microsecond))
		for _, p := range res.Trace {
			marker := ""
			if p.Checkpointing {
				marker = "  [checkpointing]"
			}
			fmt.Fprintf(w, "  t=%6.2fs  %8.0f tps%s\n", p.At.Seconds(), p.TPS, marker)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Table1 reproduces Table 1: throughput, log volume, and size ratios for
// TPC-C and Smallbank.
func Table1(w io.Writer, s Scale) error {
	fmt.Fprintln(w, "=== Table 1: log size comparison ===")
	fmt.Fprintf(w, "%-10s %8s %8s %8s | %9s %9s %9s | %7s %7s\n",
		"", "PL tps", "LL tps", "CL tps", "PL MB/min", "LL MB/min", "CL MB/min", "PL/CL", "LL/CL")
	for _, wk := range []WorkloadKind{TPCC, Smallbank} {
		var tps [3]float64
		var mbmin [3]float64
		for i, kind := range []wal.Kind{wal.Physical, wal.Logical, wal.Command} {
			cfg := s.baseRun(kind, 2)
			cfg.Workload = wk
			if wk == Smallbank {
				cfg.SB = workload.DefaultSmallbankConfig()
			}
			res, err := Run(cfg, true)
			if err != nil {
				return err
			}
			tps[i] = res.TPS
			mbmin[i] = float64(res.LogBytes) / (1 << 20) / res.Elapsed.Minutes()
		}
		fmt.Fprintf(w, "%-10s %8.0f %8.0f %8.0f | %9.1f %9.1f %9.1f | %7.2f %7.2f\n",
			wk, tps[0], tps[1], tps[2], mbmin[0], mbmin[1], mbmin[2],
			mbmin[0]/mbmin[2], mbmin[1]/mbmin[2])
	}
	return nil
}

// Fig12 reproduces Figure 12: command logging with a growing fraction of
// ad-hoc transactions, with and without checkpointing.
func Fig12(w io.Writer, s Scale) error {
	fmt.Fprintln(w, "=== Figure 12: logging with ad-hoc transactions (TPC-C, CL) ===")
	fmt.Fprintf(w, "%-8s | %-28s | %-28s\n", "", "logging only", "logging + checkpointing")
	fmt.Fprintf(w, "%-8s | %10s %16s | %10s %16s\n", "ad-hoc %", "tps", "latency", "tps", "latency")
	for _, pct := range []int{0, 20, 40, 60, 80, 100} {
		var row [2]struct {
			tps float64
			lat time.Duration
		}
		for i, withCkpt := range []bool{false, true} {
			cfg := s.baseRun(wal.Command, 2)
			cfg.AdHocPct = pct
			if withCkpt {
				cfg.CheckpointEvery = s.Duration / 3
			}
			res, err := Run(cfg, true)
			if err != nil {
				return err
			}
			row[i].tps = res.TPS
			row[i].lat = res.Latency.Mean()
		}
		fmt.Fprintf(w, "%-8d | %10.0f %16v | %10.0f %16v\n", pct,
			row[0].tps, row[0].lat.Round(time.Microsecond),
			row[1].tps, row[1].lat.Round(time.Microsecond))
	}
	return nil
}

// Table2 reproduces Table 2: overall device bandwidth per logging scheme,
// with and without checkpointing, on one and two devices.
func Table2(w io.Writer, s Scale) error {
	fmt.Fprintln(w, "=== Table 2: overall SSD bandwidth (MB/s) ===")
	fmt.Fprintf(w, "%-8s | %8s %8s %8s | %8s %8s %8s\n",
		"", "PL", "LL", "CL", "PL", "LL", "CL")
	fmt.Fprintf(w, "%-8s | %26s | %26s\n", "", "w/ checkpoint", "w/o checkpoint")
	for _, devices := range []int{1, 2} {
		var withCk, noCk [3]float64
		for i, kind := range []wal.Kind{wal.Physical, wal.Logical, wal.Command} {
			for j, ck := range []bool{true, false} {
				cfg := s.baseRun(kind, devices)
				if ck {
					cfg.CheckpointEvery = s.Duration / 3
				}
				res, err := Run(cfg, true)
				if err != nil {
					return err
				}
				bw := float64(res.LogBytes) / (1 << 20) / res.Elapsed.Seconds()
				if j == 0 {
					withCk[i] = bw
				} else {
					noCk[i] = bw
				}
			}
		}
		fmt.Fprintf(w, "%d SSD(s) | %8.1f %8.1f %8.1f | %8.1f %8.1f %8.1f\n",
			devices, withCk[0], withCk[1], withCk[2], noCk[0], noCk[1], noCk[2])
	}
	return nil
}

// Table3 reproduces Table 3: average transaction latency with and without
// fsync, on one and two devices.
func Table3(w io.Writer, s Scale) error {
	fmt.Fprintln(w, "=== Table 3: average transaction latency (checkpointing disabled) ===")
	fmt.Fprintf(w, "%-8s | %10s %10s %10s | %10s %10s %10s\n",
		"", "PL", "LL", "CL", "PL", "LL", "CL")
	fmt.Fprintf(w, "%-8s | %32s | %32s\n", "", "w/ fsync", "w/o fsync")
	for _, devices := range []int{1, 2} {
		var withF, noF [3]time.Duration
		for i, kind := range []wal.Kind{wal.Physical, wal.Logical, wal.Command} {
			for j, sync := range []bool{true, false} {
				cfg := s.baseRun(kind, devices)
				cfg.DisableSync = !sync
				res, err := Run(cfg, true)
				if err != nil {
					return err
				}
				if j == 0 {
					withF[i] = res.Latency.Mean()
				} else {
					noF[i] = res.Latency.Mean()
				}
			}
		}
		fmt.Fprintf(w, "%d SSD(s) | %10v %10v %10v | %10v %10v %10v\n", devices,
			withF[0].Round(time.Microsecond), withF[1].Round(time.Microsecond), withF[2].Round(time.Microsecond),
			noF[0].Round(time.Microsecond), noF[1].Round(time.Microsecond), noF[2].Round(time.Microsecond))
	}
	return nil
}
