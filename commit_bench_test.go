package pacman

// Micro-benchmarks of the execute→commit→encode→release hot path, one per
// logging scheme. Unlike the experiment benchmarks in bench_test.go these
// drive a txn.Worker directly (no frontend, no futures) so -benchmem
// isolates the steady-state allocation cost of committing one logged
// transaction: OCC bookkeeping, the commit record, and the logger flush
// that encodes it. The `make bench` regression guard runs exactly these.
//
//	go test -run='^$' -bench=BenchmarkCommitLogged -benchmem
//
// CHANGES.md records the before/after allocs/op trajectory.

import (
	"math/rand"
	"testing"
	"time"

	"pacman/internal/simdisk"
	"pacman/internal/txn"
	"pacman/internal/wal"
	"pacman/internal/workload"
)

// genUpdates pre-generates update-only, non-aborting transactions outside
// the benchmark timer so workload generation (which allocates Args) never
// pollutes the commit-path allocation counts.
func genUpdates(wk workload.Workload, n int) []workload.Txn {
	rng := rand.New(rand.NewSource(1))
	txs := make([]workload.Txn, 0, n)
	for len(txs) < n {
		tx := wk.Generate(rng)
		if !tx.ReadOnly && !tx.MayAbort {
			txs = append(txs, tx)
		}
	}
	return txs
}

// benchCommitLogged measures one worker committing pre-generated update
// transactions under an active logging pipeline (2 unthrottled devices, so
// the numbers reflect CPU/allocation cost, not modeled device time).
func benchCommitLogged(b *testing.B, kind wal.Kind, wk workload.Workload) {
	b.Helper()
	wk.Populate(workload.DirectPopulate{})
	mgr := txn.NewManager(wk.DB(), txn.Config{
		EpochInterval: time.Millisecond,
		MaxRetries:    1000,
	})
	devices := []*simdisk.Device{
		simdisk.New("bench0", simdisk.Config{}),
		simdisk.New("bench1", simdisk.Config{}),
	}
	ls := wal.NewLogSet(mgr, wal.Config{
		Kind:          kind,
		BatchEpochs:   wal.DefaultBatchEpochs,
		FlushInterval: time.Millisecond,
		Sync:          true,
	}, devices)
	w := mgr.NewWorker()
	ls.AttachWorker(w)
	mgr.StartEpochTicker()
	ls.Start()

	txs := genUpdates(wk, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := txs[i%len(txs)]
		if _, err := w.Execute(tx.Proc, tx.Args, false); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	w.Retire()
	mgr.Stop()
	ls.Close()
}

// BenchmarkCommitLoggedCL is the headline number: the command-logging
// commit path on Smallbank (the scheme PACMAN's forward-processing
// argument leans on — command logs are cheapest to produce).
func BenchmarkCommitLoggedCL(b *testing.B) {
	benchCommitLogged(b, wal.Command, workload.NewSmallbank(workload.DefaultSmallbankConfig()))
}

// BenchmarkCommitLoggedPL measures the physical-logging commit path
// (largest records: slots plus version addresses per write).
func BenchmarkCommitLoggedPL(b *testing.B) {
	benchCommitLogged(b, wal.Physical, workload.NewSmallbank(workload.DefaultSmallbankConfig()))
}

// BenchmarkCommitLoggedLL measures the logical-logging commit path.
func BenchmarkCommitLoggedLL(b *testing.B) {
	benchCommitLogged(b, wal.Logical, workload.NewSmallbank(workload.DefaultSmallbankConfig()))
}

// BenchmarkCommitLoggedCL_TPCC stresses the same path with TPC-C's much
// larger read/write sets (NewOrder touches dozens of rows), where the
// per-transaction scratch and write-set validation costs dominate.
func BenchmarkCommitLoggedCL_TPCC(b *testing.B) {
	cfg := workload.DefaultTPCCConfig()
	cfg.Warehouses = 1
	cfg.DisableInserts = true
	benchCommitLogged(b, wal.Command, workload.NewTPCC(cfg))
}
