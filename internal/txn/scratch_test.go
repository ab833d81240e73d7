package txn

// Tests for the recycled per-worker transaction scratch (the write-stamp
// validation path, conflict→retry reuse) and the pooled commit records.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"pacman/internal/engine"
	"pacman/internal/proc"
	"pacman/internal/tuple"
)

// TestScratchFreshAfterConflict drives one scratch T through a conflicted
// attempt and a retry by hand: the retry must observe none of the aborted
// attempt's read/write set — neither in its bookkeeping nor through
// read-your-writes.
func TestScratchFreshAfterConflict(t *testing.T) {
	b, m := setupBank(t, 10)
	cur := b.DB().Table("Current")
	w := m.NewWorker()
	w2 := m.NewWorker()

	// Attempt 1: read-modify-write account 1 on the worker's scratch.
	tx := &w.scratch
	tx.begin()
	if _, err := tx.Read(cur, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(cur, 1, []proc.ColUpdate{{Col: 1, Val: tuple.I(999)}}); err != nil {
		t.Fatal(err)
	}
	if len(tx.writes) != 1 || len(tx.reads) == 0 {
		t.Fatalf("attempt 1 bookkeeping: %d writes, %d reads", len(tx.writes), len(tx.reads))
	}

	// A competing transaction commits a new version of account 1, dooming
	// attempt 1's validation.
	t2 := &w2.scratch
	t2.begin()
	if err := t2.Write(cur, 1, []proc.ColUpdate{{Col: 1, Val: tuple.I(55)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.commit(); err != nil {
		t.Fatal(err)
	}

	if _, err := tx.commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit = %v, want ErrConflict", err)
	}
	if len(tx.reads) != 0 || len(tx.writes) != 0 {
		t.Fatalf("scratch not released after conflict: %d reads, %d writes", len(tx.reads), len(tx.writes))
	}

	// Retry on the same scratch. Read-your-writes must see the committed
	// value, not the aborted attempt's buffered 999.
	tx.begin()
	v, err := tx.Read(cur, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := v[1].Int(); got != 55 {
		t.Fatalf("retry read = %d, want the committed 55 (stale recycled write set?)", got)
	}
	if err := tx.Write(cur, 3, []proc.ColUpdate{{Col: 1, Val: tuple.I(777)}}); err != nil {
		t.Fatal(err)
	}
	if len(tx.writes) != 1 || tx.writes[0].key != 3 {
		t.Fatalf("retry write set polluted: %+v", tx.writes)
	}
	if _, err := tx.commit(); err != nil {
		t.Fatal(err)
	}
	if got := balance(t, cur, 1); got != 55 {
		t.Fatalf("account 1 = %d, want 55 (aborted write leaked)", got)
	}
	if got := balance(t, cur, 3); got != 777 {
		t.Fatalf("account 3 = %d, want 777", got)
	}
}

// TestScratchRecycledRaced hammers one hot account from several workers
// through the full execute loop so conflicts and retries constantly recycle
// each worker's scratch; the final balance must be exact (a stale recycled
// read or write set would lose or duplicate deposits).
func TestScratchRecycledRaced(t *testing.T) {
	b, m := setupBank(t, 4)
	const workers, per = 4, 300
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		w := m.NewWorker()
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			defer w.Retire()
			for i := 0; i < per; i++ {
				_, err := w.Execute(b.Deposit,
					proc.Args{proc.A(tuple.I(1)), proc.A(tuple.I(1)), proc.A(tuple.I(1))},
					false)
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	cur := b.DB().Table("Current")
	if got, want := balance(t, cur, 1), int64(10+workers*per); got != want {
		t.Fatalf("hot account = %d, want %d", got, want)
	}
}

// TestWriteStampValidation covers the stamp fast path directly: a
// transaction that reads and writes the same row passes validation while
// holding its own latch, and a foreign latch on a read row still conflicts.
func TestWriteStampValidation(t *testing.T) {
	b, m := setupBank(t, 10)
	cur := b.DB().Table("Current")
	w := m.NewWorker()

	// Own-write fast path: read row 2, write row 2, commit. Validation sees
	// the row locked (by us) with our stamp and must not abort.
	tx := &w.scratch
	tx.begin()
	if _, err := tx.Read(cur, 2); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(cur, 2, []proc.ColUpdate{{Col: 1, Val: tuple.I(42)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.commit(); err != nil {
		t.Fatalf("own-write validation aborted: %v", err)
	}

	// Foreign latch: a read-only transaction validating while another
	// holds the row latch must conflict (the stamp belongs to nobody's
	// current attempt, so the conservative path runs).
	row, _ := cur.GetRow(3)
	row.Lock()
	tx.begin()
	if _, err := tx.Read(cur, 3); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(cur, 4, []proc.ColUpdate{{Col: 1, Val: tuple.I(1)}}); err != nil {
		t.Fatal(err)
	}
	_, err := tx.commit()
	row.Unlock()
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("foreign-latch validation = %v, want ErrConflict", err)
	}
}

// TestRecycleCommittedRespectsFutures asserts the pool invariant: a commit
// record whose future has not resolved is never pooled (it is dropped to
// the GC instead), and a resolved one is cleared before reuse.
func TestRecycleCommittedRespectsFutures(t *testing.T) {
	f := NewFuture(time.Now())
	c := newCommitted()
	c.TS = engine.MakeTS(3, 7)
	c.Epoch = 3
	c.Future = f
	c.Writes = append(c.Writes, WriteRec{Key: 9})

	RecycleCommittedOne(c)
	if c.TS != engine.MakeTS(3, 7) || c.Future != f || len(c.Writes) != 1 {
		t.Fatal("record with an unresolved future was recycled")
	}

	f.Resolve(time.Now(), nil)
	RecycleCommittedOne(c)
	if c.TS != 0 || c.Future != nil || len(c.Writes) != 0 {
		t.Fatalf("resolved record not cleared on recycle: %+v", c)
	}
}

// TestRecycledCommittedReuseRaced exercises the full pool cycle under the
// race detector: workers commit with futures attached, a drainer releases
// (resolves, then recycles) while clients wait on their futures, and every
// future must carry its own transaction's timestamp — a record reused
// before resolution would corrupt it.
func TestRecycledCommittedReuseRaced(t *testing.T) {
	b, m := setupBank(t, 64)
	const workers, per = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		w := m.NewWorker()
		w.SetDurabilityDeferred(true)
		wg.Add(1)
		go func(w *Worker, g int) {
			defer wg.Done()
			// Drainer for this worker: release everything committed so far,
			// resolving futures then recycling — the wal release path in
			// miniature, racing the worker's commits that draw from the pool.
			stop := make(chan struct{})
			drained := make(chan struct{})
			go func() {
				defer close(drained)
				var scratch []*Committed
				release := func() {
					scratch = w.DrainInto(scratch[:0], ^uint32(0))
					now := time.Now()
					for _, c := range scratch {
						if c.Future != nil {
							c.Future.Resolve(now, nil)
						}
					}
					RecycleCommitted(scratch)
				}
				for {
					select {
					case <-stop:
						release()
						return
					default:
						release()
						time.Sleep(50 * time.Microsecond)
					}
				}
			}()
			futs := make([]*Future, 0, per)
			want := make([]engine.TS, 0, per)
			for i := 0; i < per; i++ {
				f := NewFuture(time.Now())
				ts, err := w.ExecuteFuture(f, b.Deposit,
					proc.Args{proc.A(tuple.I(int64(1 + (g*per+i)%64))), proc.A(tuple.I(1)), proc.A(tuple.I(1))},
					Command)
				if err != nil {
					t.Error(err)
					break
				}
				futs = append(futs, f)
				want = append(want, ts)
			}
			w.Retire()
			close(stop)
			<-drained
			for i, f := range futs {
				got, err := f.Wait()
				if err != nil {
					t.Errorf("future %d: %v", i, err)
					break
				}
				if got != want[i] {
					t.Errorf("future %d ts = %d, want %d (pooled record reused before resolve?)", i, got, want[i])
					break
				}
			}
		}(w, g)
	}
	wg.Wait()
}
