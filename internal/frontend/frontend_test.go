package frontend

import (
	"errors"
	"sync"
	"testing"
	"time"

	"pacman/internal/proc"
	"pacman/internal/simdisk"
	"pacman/internal/tuple"
	"pacman/internal/txn"
	"pacman/internal/wal"
	"pacman/internal/workload"
)

// fixture is a started bank database: manager, active command logging on
// two devices, and the workload registry.
type fixture struct {
	bank    *workload.Bank
	mgr     *txn.Manager
	logset  *wal.LogSet
	devices []*simdisk.Device
	deposit *proc.Compiled
}

func newFixture(t testing.TB, kind wal.Kind) *fixture {
	t.Helper()
	bank := workload.NewBank(64)
	bank.Populate(workload.DirectPopulate{})
	mgr := txn.NewManager(bank.DB(), txn.Config{
		MultiVersion:  true,
		EpochInterval: time.Millisecond,
		MaxRetries:    100000,
	})
	devices := []*simdisk.Device{simdisk.New("ssd0", simdisk.Config{}), simdisk.New("ssd1", simdisk.Config{})}
	cfg := wal.Config{Kind: kind, BatchEpochs: 4, FlushInterval: 250 * time.Microsecond, Sync: true}
	ls := wal.NewLogSet(mgr, cfg, devices)
	mgr.StartEpochTicker()
	ls.Start()
	dep := bank.Registry().ByName("Deposit")
	if dep == nil {
		t.Fatal("Deposit proc missing")
	}
	return &fixture{bank: bank, mgr: mgr, logset: ls, devices: devices, deposit: dep}
}

func (fx *fixture) depositArgs(acct, amount, stats int64) proc.Args {
	return proc.Args{proc.A(tuple.I(acct)), proc.A(tuple.I(amount)), proc.A(tuple.I(stats))}
}

// waitAll fails the test if any future does not resolve within the
// deadline — the no-wait-forever guarantee.
func waitAll(t *testing.T, futs []*txn.Future, deadline time.Duration) {
	t.Helper()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for i, f := range futs {
		select {
		case <-f.Done():
		case <-timer.C:
			t.Fatalf("future %d/%d not resolved after %v", i, len(futs), deadline)
		}
	}
}

// TestFrontendMultiplexesClients is the headline contract: 64 client
// goroutines share 8 sessions through the frontend, and every future
// resolves with a durable timestamp.
func TestFrontendMultiplexesClients(t *testing.T) {
	fx := newFixture(t, wal.Command)
	const clients, perClient, poolSize = 64, 25, 8

	before := len(fx.mgr.Workers())
	fe := New(fx.mgr, fx.logset, Config{Workers: poolSize, Queue: 2 * poolSize})
	if got := len(fx.mgr.Workers()) - before; got != poolSize {
		t.Fatalf("frontend created %d workers, want %d", got, poolSize)
	}

	futs := make([][]*txn.Future, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				acct := int64(1 + (c*perClient+i)%64)
				futs[c] = append(futs[c], fe.Submit(Request{P: fx.deposit, Args: fx.depositArgs(acct, 1, int64(1+c%10))}))
			}
		}(c)
	}
	wg.Wait()
	fe.Close()
	fx.mgr.Stop()
	fx.logset.Close()

	// No sessions beyond the pool were ever created.
	if got := len(fx.mgr.Workers()) - before; got != poolSize {
		t.Fatalf("session count grew to %d, want %d", got, poolSize)
	}
	for c := 0; c < clients; c++ {
		waitAll(t, futs[c], 5*time.Second)
		for i, f := range futs[c] {
			ts, err := f.Wait()
			if err != nil {
				t.Fatalf("client %d future %d: %v", c, i, err)
			}
			if ts == 0 {
				t.Fatalf("client %d future %d: zero durable TS", c, i)
			}
			if f.DurableAt().Before(f.ExecAt()) {
				t.Fatalf("client %d future %d: durable %v before exec %v",
					c, i, f.DurableAt(), f.ExecAt())
			}
			if f.DurableLatency() < f.ExecLatency() {
				t.Fatalf("client %d future %d: durable latency %v < exec latency %v",
					c, i, f.DurableLatency(), f.ExecLatency())
			}
		}
	}
	if fe.Executed() != clients*perClient {
		t.Fatalf("executed %d, want %d", fe.Executed(), clients*perClient)
	}
}

// TestFuturesResolveInEpochOrder checks the release path's ordering: the
// pepoch advances monotonically, so a future from a lower epoch can never
// resolve after one from a higher epoch.
func TestFuturesResolveInEpochOrder(t *testing.T) {
	fx := newFixture(t, wal.Command)
	fe := New(fx.mgr, fx.logset, Config{Workers: 1})
	var futs []*txn.Future
	for i := 0; i < 20; i++ {
		futs = append(futs, fe.Submit(Request{P: fx.deposit, Args: fx.depositArgs(int64(1+i%64), 1, 1)}))
		if i%4 == 3 {
			time.Sleep(2 * time.Millisecond) // let the epoch clock tick
		}
	}
	fe.Close()
	fx.mgr.Stop()
	fx.logset.Close()
	waitAll(t, futs, 5*time.Second)

	epochs := make(map[uint32]bool)
	for i, a := range futs {
		if err := a.Err(); err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		epochs[a.Epoch()] = true
		for j, b := range futs {
			if a.Epoch() < b.Epoch() && a.DurableAt().After(b.DurableAt()) {
				t.Fatalf("epoch order violated: future %d (epoch %d) released at %v, "+
					"after future %d (epoch %d) at %v",
					i, a.Epoch(), a.DurableAt(), j, b.Epoch(), b.DurableAt())
			}
		}
	}
	if len(epochs) < 2 {
		t.Fatalf("test spanned %d epoch(s); want >= 2 for the ordering to be meaningful", len(epochs))
	}
}

// TestCrashFailsFutures simulates a power failure with futures in flight:
// every future must still resolve — durable, or with wal.ErrCrashed — and
// no waiter may hang.
func TestCrashFailsFutures(t *testing.T) {
	fx := newFixture(t, wal.Command)
	fe := New(fx.mgr, fx.logset, Config{Workers: 4, Queue: 16})

	var mu sync.Mutex
	var futs []*txn.Future
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f := fe.Submit(Request{P: fx.deposit, Args: fx.depositArgs(int64(1+(c+i)%64), 1, 1)})
				mu.Lock()
				futs = append(futs, f)
				mu.Unlock()
			}
		}(c)
	}
	time.Sleep(5 * time.Millisecond)
	// Power failure while submissions are racing in: loggers halt, devices
	// lose their unsynced tails.
	fx.mgr.Stop()
	fx.logset.Abort()
	for _, d := range fx.devices {
		d.Crash()
	}
	time.Sleep(time.Millisecond)
	close(stop)
	wg.Wait()
	fe.Close()

	mu.Lock()
	all := futs
	mu.Unlock()
	if len(all) == 0 {
		t.Fatal("no futures submitted")
	}
	waitAll(t, all, 5*time.Second)
	durable, crashed := 0, 0
	for i, f := range all {
		switch _, err := f.Wait(); {
		case err == nil:
			durable++
		case errors.Is(err, wal.ErrCrashed):
			crashed++
		case errors.Is(err, ErrClosed):
			// Submitted after Close won the race; fine.
		default:
			t.Fatalf("future %d: unexpected error %v", i, err)
		}
	}
	if crashed == 0 {
		t.Log("warning: no future observed the crash (all flushed in time)")
	}
	t.Logf("durable=%d crashed=%d of %d", durable, crashed, len(all))
}

// TestFrontendDrainOnClose races many submitters against Close: everything
// accepted must execute and resolve; everything rejected must resolve with
// ErrClosed; nothing may hang.
func TestFrontendDrainOnClose(t *testing.T) {
	fx := newFixture(t, wal.Command)
	fe := New(fx.mgr, fx.logset, Config{Workers: 4, Queue: 8})

	const submitters = 64
	results := make([][]*txn.Future, submitters)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < submitters; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				f := fe.Submit(Request{P: fx.deposit, Args: fx.depositArgs(int64(1+c), 1, 1)})
				results[c] = append(results[c], f)
				if errors.Is(f.Err(), ErrClosed) {
					return // frontend closed under us; stop submitting
				}
			}
		}(c)
	}
	close(start)
	time.Sleep(2 * time.Millisecond)
	fe.Close() // races the submitters
	wg.Wait()
	fx.mgr.Stop()
	fx.logset.Close()

	accepted, rejected := 0, 0
	for c := range results {
		waitAll(t, results[c], 5*time.Second)
		for i, f := range results[c] {
			switch _, err := f.Wait(); {
			case err == nil:
				accepted++
			case errors.Is(err, ErrClosed):
				rejected++
			case errors.Is(err, wal.ErrClosed):
				t.Fatalf("submitter %d future %d: accepted work failed durability: %v", c, i, err)
			default:
				t.Fatalf("submitter %d future %d: %v", c, i, err)
			}
		}
	}
	if accepted == 0 {
		t.Fatal("Close raced ahead of every submitter; no accepted work")
	}
	if int64(accepted) != fe.Executed() {
		t.Fatalf("accepted %d futures but pool executed %d", accepted, fe.Executed())
	}
	t.Logf("accepted=%d rejected=%d", accepted, rejected)
}

// TestSubmitAfterCloseResolvesImmediately: a closed frontend never blocks
// and never leaks an unresolved future.
func TestSubmitAfterCloseResolvesImmediately(t *testing.T) {
	fx := newFixture(t, wal.Command)
	fe := New(fx.mgr, fx.logset, Config{Workers: 2})
	fe.Close()
	f := fe.Submit(Request{P: fx.deposit, Args: fx.depositArgs(1, 1, 1)})
	if _, err := f.Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	fx.mgr.Stop()
	fx.logset.Close()
}

// TestExecIsDurable: the synchronous path returns only after group-commit
// release, so the persistent epoch must already cover the commit's epoch.
func TestExecIsDurable(t *testing.T) {
	fx := newFixture(t, wal.Command)
	fe := New(fx.mgr, fx.logset, Config{Workers: 2})
	for i := 0; i < 5; i++ {
		ts, err := fe.Submit(Request{P: fx.deposit, Args: fx.depositArgs(int64(1+i), 10, 1)}).Wait()
		if err != nil {
			t.Fatal(err)
		}
		if epoch := uint32(ts >> 32); fx.logset.PersistedEpoch() < epoch {
			t.Fatalf("Exec returned with pepoch %d < commit epoch %d",
				fx.logset.PersistedEpoch(), epoch)
		}
	}
	fe.Close()
	fx.mgr.Stop()
	fx.logset.Close()
}

// TestOffLoggingResolvesAtExecution: with logging off there is no release
// path; futures must resolve at commit instead of waiting forever.
func TestOffLoggingResolvesAtExecution(t *testing.T) {
	fx := newFixture(t, wal.Off)
	fe := New(fx.mgr, fx.logset, Config{Workers: 2})
	var futs []*txn.Future
	for i := 0; i < 10; i++ {
		futs = append(futs, fe.Submit(Request{P: fx.deposit, Args: fx.depositArgs(int64(1+i), 1, 1)}))
	}
	waitAll(t, futs, 5*time.Second)
	for i, f := range futs {
		if err := f.Err(); err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		if !f.DurableAt().Equal(f.ExecAt()) {
			t.Fatalf("future %d: durable %v != exec %v with logging off", i, f.DurableAt(), f.ExecAt())
		}
	}
	fe.Close()
	fx.mgr.Stop()
	fx.logset.Close()
}

// TestBackpressureBounds: with a tiny queue and slow epoch release, Submit
// applies backpressure instead of buffering without bound — the number of
// unexecuted requests can never exceed queue capacity + pool size.
func TestBackpressureBounds(t *testing.T) {
	fx := newFixture(t, wal.Command)
	const queue, pool = 4, 2
	fe := New(fx.mgr, fx.logset, Config{Workers: pool, Queue: queue})
	var submitted, done sync.WaitGroup
	for c := 0; c < 16; c++ {
		submitted.Add(1)
		done.Add(1)
		go func(c int) {
			defer done.Done()
			first := true
			for i := 0; i < 30; i++ {
				f := fe.Submit(Request{P: fx.deposit, Args: fx.depositArgs(int64(1+c), 1, 1)})
				if first {
					submitted.Done()
					first = false
				}
				f.Wait()
			}
		}(c)
	}
	submitted.Wait()
	done.Wait()
	fe.Close()
	fx.mgr.Stop()
	fx.logset.Close()
	if fe.Executed() != 16*30 {
		t.Fatalf("executed %d, want %d", fe.Executed(), 16*30)
	}
}
