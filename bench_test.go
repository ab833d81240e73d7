package pacman

// One benchmark per table and figure of the paper's evaluation. Each wraps
// the corresponding harness experiment at a reduced scale so the full suite
// completes in minutes; `cmd/pacman-bench` runs the same experiments with
// larger, configurable scales and prints the full row/series output.
//
//	go test -bench=. -benchmem
//
// The absolute numbers are machine- and scale-specific; EXPERIMENTS.md
// records the shape comparisons against the paper.

import (
	"io"
	"testing"
	"time"

	"pacman/internal/harness"
)

// benchScale returns a scale small enough for testing.B iteration.
func benchScale() harness.Scale {
	s := harness.DefaultScale(true)
	s.Duration = 400 * time.Millisecond
	s.Workers = 2
	s.Threads = []int{1, 2, 4}
	s.Warehouses = 1
	return s
}

func runExp(b *testing.B, fn func(io.Writer, harness.Scale) error) {
	b.Helper()
	s := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fn(io.Discard, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11_Logging covers Figures 11a/11b: transaction processing
// under each logging scheme with checkpointing, one and two devices.
func BenchmarkFig11_Logging(b *testing.B) {
	b.Run("1ssd", func(b *testing.B) {
		runExp(b, func(w io.Writer, s harness.Scale) error { return harness.Fig11(w, s, 1) })
	})
	b.Run("2ssd", func(b *testing.B) {
		runExp(b, func(w io.Writer, s harness.Scale) error { return harness.Fig11(w, s, 2) })
	})
}

// BenchmarkTable1_LogSize covers Table 1: log volume per scheme.
func BenchmarkTable1_LogSize(b *testing.B) { runExp(b, harness.Table1) }

// BenchmarkFig12_AdHocLogging covers Figure 12: logging with ad-hoc
// transactions.
func BenchmarkFig12_AdHocLogging(b *testing.B) { runExp(b, harness.Fig12) }

// BenchmarkFig13_CheckpointRecovery covers Figure 13: checkpoint recovery.
func BenchmarkFig13_CheckpointRecovery(b *testing.B) { runExp(b, harness.Fig13) }

// BenchmarkFig14_LogRecovery covers Figure 14: log recovery across schemes
// and threads.
func BenchmarkFig14_LogRecovery(b *testing.B) { runExp(b, harness.Fig14) }

// BenchmarkFig15_LatchBottleneck covers Figure 15: PLR/LLR with and without
// latches.
func BenchmarkFig15_LatchBottleneck(b *testing.B) { runExp(b, harness.Fig15) }

// BenchmarkFig16_Overall covers Figure 16: overall recovery, TPC-C and
// Smallbank.
func BenchmarkFig16_Overall(b *testing.B) { runExp(b, harness.Fig16) }

// BenchmarkFig17_AdHocRecovery covers Figure 17: recovery under an ad-hoc
// transaction mix.
func BenchmarkFig17_AdHocRecovery(b *testing.B) { runExp(b, harness.Fig17) }

// BenchmarkFig18_StaticVsChopping covers Figure 18: PACMAN's static
// decomposition against transaction chopping.
func BenchmarkFig18_StaticVsChopping(b *testing.B) { runExp(b, harness.Fig18) }

// BenchmarkFig19_DynamicAnalysis covers Figure 19: static vs synchronous vs
// pipelined replay.
func BenchmarkFig19_DynamicAnalysis(b *testing.B) { runExp(b, harness.Fig19) }

// BenchmarkFig20_Breakdown covers Figure 20: the recovery-time breakdown.
func BenchmarkFig20_Breakdown(b *testing.B) { runExp(b, harness.Fig20) }

// BenchmarkFig21_GDG covers Figure 21: TPC-C dependency-graph construction.
func BenchmarkFig21_GDG(b *testing.B) { runExp(b, harness.Fig21) }

// BenchmarkTable2_Bandwidth covers Table 2: device bandwidth accounting.
func BenchmarkTable2_Bandwidth(b *testing.B) { runExp(b, harness.Table2) }

// BenchmarkTable3_FsyncLatency covers Table 3: fsync's latency contribution.
func BenchmarkTable3_FsyncLatency(b *testing.B) { runExp(b, harness.Table3) }
