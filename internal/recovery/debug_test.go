package recovery

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"pacman/internal/proc"
	"pacman/internal/sched"
	"pacman/internal/simdisk"
	"pacman/internal/txn"
	"pacman/internal/wal"
	"pacman/internal/workload"
)

// TestDebugSmallbankBisect finds the first log prefix where CLR and CLR-P
// diverge and prints the offending transaction. It passes when no prefix
// diverges.
func TestDebugSmallbankBisect(t *testing.T) {
	cfg := workload.SmallbankConfig{Customers: 200, HotspotPct: 25}
	live := workload.NewSmallbank(cfg)
	live.Populate(workload.DirectPopulate{})
	m := txn.NewManager(live.DB(), txn.DefaultConfig())
	devs := []*simdisk.Device{simdisk.New("d", simdisk.Unlimited())}
	wcfg := wal.Config{Kind: wal.Command, BatchEpochs: 100, FlushInterval: time.Millisecond, Sync: true}
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
			t.Fatal(err)
		}
	}
	w.Retire()
	m.AdvanceEpoch()
	ls.Close()
	m.Stop()
	entries, _, err := wal.ReloadAll(devs, ls.PersistedEpoch(), 1)
	if err != nil {
		t.Fatal(err)
	}

	replay := func(n int, clrp bool) map[string]map[uint64]string {
		fresh := workload.NewSmallbank(cfg)
		fresh.Populate(workload.DirectPopulate{})
		if clrp {
			r := sched.New(smallbankGDG(fresh), fresh.Registry(), fresh.DB(),
				sched.Options{Threads: 1, Mode: sched.Synchronous})
			r.Start()
			r.Submit(entries[:n])
			if err := r.Finish(); err != nil {
				t.Fatal(err)
			}
		} else {
			ex := &serialExec{db: fresh.DB()}
			for _, e := range entries[:n] {
				if e.Kind == wal.EntryCommand {
					ex.ts = e.TS
					c := fresh.Registry().ByID(e.ProcID)
					if err := c.Execute(e.Args, ex); err != nil {
						t.Fatal(err)
					}
				} else {
					for _, wr := range e.Writes {
						tab := fresh.DB().TableByID(wr.TableID)
						row, _ := tab.GetOrCreateRow(wr.Key)
						row.Install(e.TS, wr.After, wr.Deleted, false)
					}
				}
			}
		}
		return snapshotState(fresh.DB())
	}

	same := func(a, b map[string]map[uint64]string) (string, uint64, bool) {
		for tab, rows := range a {
			for k, v := range rows {
				if b[tab][k] != v {
					return tab, k, false
				}
			}
		}
		return "", 0, true
	}

	// Binary search the first diverging prefix.
	lo, hi := 0, len(entries)
	if _, _, ok := same(replay(hi, false), replay(hi, true)); ok {
		return // no divergence
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if _, _, ok := same(replay(mid, false), replay(mid, true)); ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	e := entries[hi-1]
	tab, key, _ := same(replay(hi, false), replay(hi, true))
	if e.Kind == wal.EntryCommand {
		c := live.Registry().ByID(e.ProcID)
		t.Fatalf("first divergence at entry %d: %s args=%v (table %s key %d)",
			hi-1, c.Name(), e.Args, tab, key)
	}
	t.Fatalf("first divergence at entry %d: ad-hoc writes=%+v (table %s key %d)",
		hi-1, e.Writes, tab, key)
}
