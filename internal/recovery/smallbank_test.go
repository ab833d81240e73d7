package recovery

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"pacman/internal/analysis"
	"pacman/internal/engine"
	"pacman/internal/proc"
	"pacman/internal/simdisk"
	"pacman/internal/txn"
	"pacman/internal/wal"
	"pacman/internal/workload"
)

// indexLen counts the keys in a table's primary index.
func indexLen(tab *engine.Table) int {
	n := 0
	tab.ScanIndex(0, ^uint64(0), func(*engine.Row) bool { n++; return true })
	return n
}

func smallbankGDG(s *workload.Smallbank) *analysis.GDG {
	var ldgs []*analysis.LDG
	for _, p := range s.LoggingProcs() {
		ldgs = append(ldgs, analysis.BuildLDG(p))
	}
	return analysis.BuildGDG(ldgs)
}

// TestSmallbankRecoveryEquivalence runs the full Smallbank mix (guards,
// aborts, ad-hoc) under command logging and checks CLR and CLR-P rebuild
// the identical state.
func TestSmallbankRecoveryEquivalence(t *testing.T) {
	cfg := workload.SmallbankConfig{Customers: 200, HotspotPct: 25}
	live := workload.NewSmallbank(cfg)
	live.Populate(workload.DirectPopulate{})
	m := txn.NewManager(live.DB(), txn.DefaultConfig())
	devs := []*simdisk.Device{simdisk.New("d", simdisk.Unlimited())}
	wcfg := wal.Config{Kind: wal.Command, BatchEpochs: 100, FlushInterval: time.Millisecond, Sync: true}
	wcfg.BatchEpochs = 3
	wcfg.FlushInterval = 100 * time.Microsecond
	ls := wal.NewLogSet(m, wcfg, devs)
	w := m.NewWorker()
	ls.AttachWorker(w)
	ls.Start()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		tx := live.Generate(rng)
		adhoc := rng.Intn(100) < 20 && !tx.ReadOnly
		if _, err := w.Execute(tx.Proc, tx.Args, adhoc); err != nil {
			if tx.MayAbort && errors.Is(err, proc.ErrAborted) {
				continue
			}
			t.Fatalf("%s: %v", tx.Proc.Name(), err)
		}
		if i%17 == 16 {
			m.AdvanceEpoch()
			w.Heartbeat()
		}
	}
	w.Retire()
	m.AdvanceEpoch()
	ls.Close()
	m.Stop()
	want := snapshotState(live.DB())
	for _, d := range devs {
		d.Crash()
	}

	recover := func(scheme Scheme, threads int) map[string]map[uint64]string {
		fresh := workload.NewSmallbank(cfg)
		fresh.Populate(workload.DirectPopulate{})
		o := Options{
			Scheme:   scheme,
			DB:       fresh.DB(),
			Registry: fresh.Registry(),
			Devices:  devs,
			Threads:  threads,
		}
		if scheme == CLRP {
			o.GDG = smallbankGDG(fresh)
		}
		if _, err := Run(o); err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		return snapshotState(fresh.DB())
	}

	sameState(t, want, recover(CLR, 1), "smallbank CLR")
	for _, threads := range []int{1, 2, 4, 8} {
		sameState(t, want, recover(CLRP, threads), "smallbank CLR-P")
	}
}

// TestTPCCRecoveryEquivalence is the paper's primary workload end to end:
// the full TPC-C mix (inserts, deletes, loops, aborts) under command
// logging, recovered by CLR and CLR-P.
func TestTPCCRecoveryEquivalence(t *testing.T) {
	cfg := workload.TPCCConfig{
		Warehouses: 2, DistrictsPerWH: 2, CustomersPerDistrict: 10,
		Items: 40, InitOrdersPerDistrict: 10, LinesPerOrder: 3, InvalidItemPct: 2,
	}
	live := workload.NewTPCC(cfg)
	live.Populate(workload.DirectPopulate{})
	m := txn.NewManager(live.DB(), txn.DefaultConfig())
	devs := []*simdisk.Device{simdisk.New("d", simdisk.Unlimited())}
	wcfg := wal.Config{Kind: wal.Command, BatchEpochs: 100, FlushInterval: time.Millisecond, Sync: true}
	wcfg.BatchEpochs = 2
	wcfg.FlushInterval = 100 * time.Microsecond
	ls := wal.NewLogSet(m, wcfg, devs)
	w := m.NewWorker()
	ls.AttachWorker(w)
	ls.Start()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1500; i++ {
		tx := live.Generate(rng)
		if _, err := w.Execute(tx.Proc, tx.Args, false); err != nil {
			if tx.MayAbort && errors.Is(err, proc.ErrAborted) {
				continue
			}
			t.Fatalf("%s: %v", tx.Proc.Name(), err)
		}
		if i%13 == 12 {
			m.AdvanceEpoch()
			w.Heartbeat()
		}
	}
	w.Retire()
	m.AdvanceEpoch()
	ls.Close()
	m.Stop()
	want := snapshotState(live.DB())
	devs[0].Crash()

	recover := func(scheme Scheme, threads int) map[string]map[uint64]string {
		fresh := workload.NewTPCC(cfg)
		fresh.Populate(workload.DirectPopulate{})
		o := Options{
			Scheme:   scheme,
			DB:       fresh.DB(),
			Registry: fresh.Registry(),
			Devices:  devs,
			Threads:  threads,
		}
		if scheme == CLRP {
			var ldgs []*analysis.LDG
			for _, p := range fresh.LoggingProcs() {
				ldgs = append(ldgs, analysis.BuildLDG(p))
			}
			o.GDG = analysis.BuildGDG(ldgs)
		}
		if _, err := Run(o); err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		return snapshotState(fresh.DB())
	}

	sameState(t, want, recover(CLR, 1), "tpcc CLR")
	for _, threads := range []int{2, 6} {
		sameState(t, want, recover(CLRP, threads), "tpcc CLR-P")
	}
}

// TestTPCCAllTupleSchemes: PLR / LLR / LLR-P over the TPC-C mix.
func TestTPCCAllTupleSchemes(t *testing.T) {
	cfg := workload.TPCCConfig{
		Warehouses: 1, DistrictsPerWH: 2, CustomersPerDistrict: 10,
		Items: 30, InitOrdersPerDistrict: 8, LinesPerOrder: 3, InvalidItemPct: 1,
	}
	for _, c := range []struct {
		scheme Scheme
		kind   wal.Kind
	}{{PLR, wal.Physical}, {LLR, wal.Logical}, {LLRP, wal.Logical}} {
		live := workload.NewTPCC(cfg)
		live.Populate(workload.DirectPopulate{})
		m := txn.NewManager(live.DB(), txn.DefaultConfig())
		devs := []*simdisk.Device{simdisk.New("d", simdisk.Unlimited())}
		wcfg := wal.Config{Kind: c.kind, BatchEpochs: 100, FlushInterval: time.Millisecond, Sync: true}
		wcfg.BatchEpochs = 2
		wcfg.FlushInterval = 100 * time.Microsecond
		ls := wal.NewLogSet(m, wcfg, devs)
		w := m.NewWorker()
		ls.AttachWorker(w)
		ls.Start()
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 800; i++ {
			tx := live.Generate(rng)
			if _, err := w.Execute(tx.Proc, tx.Args, false); err != nil {
				if tx.MayAbort && errors.Is(err, proc.ErrAborted) {
					continue
				}
				t.Fatal(err)
			}
			if i%9 == 8 {
				m.AdvanceEpoch()
				w.Heartbeat()
			}
		}
		w.Retire()
		m.AdvanceEpoch()
		ls.Close()
		m.Stop()
		want := snapshotState(live.DB())
		devs[0].Crash()

		fresh := workload.NewTPCC(cfg)
		fresh.Populate(workload.DirectPopulate{})
		if _, err := Run(Options{
			Scheme: c.scheme, DB: fresh.DB(), Registry: fresh.Registry(),
			Devices: devs, Threads: 4,
		}); err != nil {
			t.Fatalf("%v: %v", c.scheme, err)
		}
		sameState(t, want, snapshotState(fresh.DB()), "tpcc "+c.scheme.String())
		// PLR must have rebuilt the indexes.
		if c.scheme == PLR {
			for _, tab := range fresh.DB().Tables() {
				liveLen := indexLen(live.DB().Table(tab.Name()))
				if indexLen(tab) != liveLen {
					t.Errorf("PLR: table %s index %d, want %d", tab.Name(), indexLen(tab), liveLen)
				}
			}
		}
	}
}

var _ = engine.MakeTS // keep engine import if assertions above change
