package sched

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"pacman/internal/analysis"
	"pacman/internal/proc"
	"pacman/internal/simdisk"
	"pacman/internal/txn"
	"pacman/internal/wal"
	"pacman/internal/workload"
)

// tpccEntries produces a TPC-C command log for replay benchmarks.
func tpccEntries(tb testing.TB, n int) (workload.TPCCConfig, []*wal.Entry) {
	cfg := workload.TPCCConfig{
		Warehouses: 2, DistrictsPerWH: 4, CustomersPerDistrict: 50,
		Items: 200, InitOrdersPerDistrict: 20, LinesPerOrder: 5, InvalidItemPct: 1,
	}
	live := workload.NewTPCC(cfg)
	live.Populate(workload.DirectPopulate{})
	m := txn.NewManager(live.DB(), txn.DefaultConfig())
	devs := []*simdisk.Device{simdisk.New("d", simdisk.Unlimited())}
	wcfg := wal.Config{Kind: wal.Command, BatchEpochs: 100, FlushInterval: time.Millisecond, Sync: true}
	wcfg.FlushInterval = 100 * time.Microsecond
	ls := wal.NewLogSet(m, wcfg, devs)
	w := m.NewWorker()
	ls.AttachWorker(w)
	ls.Start()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		tx := live.Generate(rng)
		if _, err := w.Execute(tx.Proc, tx.Args, false); err != nil {
			if tx.MayAbort && errors.Is(err, proc.ErrAborted) {
				continue
			}
			tb.Fatal(err)
		}
	}
	w.Retire()
	m.AdvanceEpoch()
	ls.Close()
	m.Stop()
	entries, _, err := wal.ReloadAll(devs, ls.PersistedEpoch(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	return cfg, entries
}

func tpccGDG(cfg workload.TPCCConfig) (*workload.TPCC, *analysis.GDG) {
	fresh := workload.NewTPCC(cfg)
	fresh.Populate(workload.DirectPopulate{})
	var ldgs []*analysis.LDG
	for _, p := range fresh.LoggingProcs() {
		ldgs = append(ldgs, analysis.BuildLDG(p))
	}
	return fresh, analysis.BuildGDG(ldgs)
}

// BenchmarkReplayTPCCSerial measures serial re-execution (CLR's replay
// inner loop) as the baseline.
func BenchmarkReplayTPCCSerial(b *testing.B) {
	cfg, entries := tpccEntries(b, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := workload.NewTPCC(cfg)
		b.StopTimer()
		fresh.Populate(workload.DirectPopulate{})
		b.StartTimer()
		for _, e := range entries {
			c := fresh.Registry().ByID(e.ProcID)
			ex := &installExec{ts: e.TS}
			if err := c.Execute(e.Args, ex); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkReplayTPCCPACMAN measures the full scheduler path.
func BenchmarkReplayTPCCPACMAN(b *testing.B) {
	cfg, entries := tpccEntries(b, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh, gdg := tpccGDG(cfg)
		b.StartTimer()
		r := New(gdg, fresh.Registry(), fresh.DB(), Options{Threads: 2, Mode: Pipelined})
		r.Start()
		for lo := 0; lo < len(entries); lo += 500 {
			hi := lo + 500
			if hi > len(entries) {
				hi = len(entries)
			}
			r.Submit(entries[lo:hi])
		}
		if err := r.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}
