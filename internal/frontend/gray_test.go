package frontend

import (
	"errors"
	"testing"
	"time"

	"pacman/internal/txn"
	"pacman/internal/wal"
)

// TestDeadlineExpiredAtAdmission: a request whose deadline has already
// passed never enters the queue — it resolves ErrDeadlineExceeded
// immediately and counts in the Admission shed bucket.
func TestDeadlineExpiredAtAdmission(t *testing.T) {
	fx := newFixture(t, wal.Command)
	fe := New(fx.mgr, fx.logset, Config{Workers: 2, Queue: 8})
	defer func() { fe.Close(); fx.mgr.Stop(); fx.logset.Close() }()

	fut := fe.Submit(Request{P: fx.deposit, Args: fx.depositArgs(1, 1, 1), Deadline: time.Now().Add(-time.Millisecond)})
	select {
	case <-fut.Done():
	default:
		t.Fatal("expired-at-admission future must resolve synchronously")
	}
	if _, err := fut.Wait(); !errors.Is(err, txn.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if s := fe.ShedStats(); s.Admission != 1 || s.Queue != 0 || s.Brownout != 0 {
		t.Fatalf("shed stats = %+v, want exactly one admission shed", s)
	}
	if fx.deposited() != 0 {
		t.Fatal("an admission-shed request must never execute")
	}

	// NoWait variant: same shed, and the future resolves before Submit
	// returns, telling the caller the request was not admitted.
	fut2 := fe.Submit(Request{P: fx.deposit, Args: fx.depositArgs(1, 1, 1), Deadline: time.Now().Add(-time.Millisecond), NoWait: true})
	if !fut2.Resolved() {
		t.Fatal("NoWait Submit admitted an expired request")
	}
	if _, err := fut2.Wait(); !errors.Is(err, txn.ErrDeadlineExceeded) {
		t.Fatalf("try err = %v, want ErrDeadlineExceeded", err)
	}
	if s := fe.ShedStats(); s.Admission != 2 {
		t.Fatalf("shed stats = %+v, want two admission sheds", s)
	}
}

// TestDeadlineShedsAtDequeue: a request whose deadline expires while it
// sits in the queue is shed at dequeue — resolved with the typed error,
// counted in the Queue bucket, and never executed. The expired request is
// injected into the queue directly so the test does not depend on winning
// a race against the worker pool.
func TestDeadlineShedsAtDequeue(t *testing.T) {
	fx := newFixture(t, wal.Command)
	fe := New(fx.mgr, fx.logset, Config{Workers: 1, Queue: 8})
	defer func() { fe.Close(); fx.mgr.Stop(); fx.logset.Close() }()

	fut := txn.NewFutureDeadline(time.Now().Add(-2*time.Millisecond), time.Now().Add(-time.Millisecond))
	fe.queues[0] <- request{p: fx.deposit, args: fx.depositArgs(1, 1, 1), fut: fut}
	fe.nudge()
	if _, err := fut.Wait(); !errors.Is(err, txn.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	waitCond(t, "queue shed counted", func() bool { return fe.ShedStats().Queue == 1 })
	if fx.deposited() != 0 {
		t.Fatal("a dequeue-shed request must never execute")
	}

	// An already-resolved future (its expiry timer fired first) is also
	// swept at dequeue without executing.
	fut2 := txn.NewFutureDeadline(time.Now(), time.Now().Add(50*time.Millisecond))
	fut2.Resolve(time.Now(), txn.ErrDeadlineExceeded)
	fe.queues[0] <- request{p: fx.deposit, args: fx.depositArgs(1, 1, 1), fut: fut2}
	fe.nudge()
	waitCond(t, "resolved future swept", func() bool { return fe.ShedStats().Queue == 2 })
	if fx.deposited() != 0 {
		t.Fatal("a pre-resolved request must never execute")
	}
}

// TestDeadlineAccounting floods a small pool with short-deadline requests:
// whatever the timing, every future must resolve (no-wait-forever), every
// request lands in exactly one bucket, and sheds never execute.
func TestDeadlineAccounting(t *testing.T) {
	fx := newFixture(t, wal.Command)
	fe := New(fx.mgr, fx.logset, Config{Workers: 1, Queue: 4})
	defer func() { fe.Close(); fx.mgr.Stop(); fx.logset.Close() }()

	const n = 400
	futs := make([]*txn.Future, n)
	for i := range futs {
		futs[i] = fe.Submit(Request{P: fx.deposit, Args: fx.depositArgs(int64(1+i%64), 1, 1), Deadline: time.Now().Add(500 * time.Microsecond)})
	}
	var expired, committed int64
	for i, f := range futs {
		select {
		case <-f.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("future %d never resolved", i)
		}
		switch _, err := f.Wait(); {
		case err == nil:
			committed++
		case errors.Is(err, txn.ErrDeadlineExceeded):
			expired++
		default:
			t.Fatalf("future %d: unexpected error %v", i, err)
		}
	}
	// Expired futures split between shed-before-execution (the buckets)
	// and expired-awaiting-durability (armed timer fired after execution);
	// the buckets can never exceed the expired count, and everything that
	// committed must have executed.
	s := fe.ShedStats()
	if s.Admission+s.Queue > expired {
		t.Fatalf("shed buckets %+v exceed %d expired futures", s, expired)
	}
	if got := fx.deposited(); committed > got {
		t.Fatalf("committed=%d > executed=%d", committed, got)
	}
	if committed+expired != n {
		t.Fatalf("committed=%d + expired=%d != %d", committed, expired, n)
	}
	t.Logf("n=%d committed=%d expired=%d shed=%+v", n, committed, expired, s)
}

// TestBrownoutShedsAtAdmission: while the watchdog holds the frontend in
// brownout, new submissions resolve ErrBrownout without queueing; work
// already queued still executes; clearing brownout restores admission.
func TestBrownoutShedsAtAdmission(t *testing.T) {
	fx := newFixture(t, wal.Command)
	fe := New(fx.mgr, fx.logset, Config{Workers: 2, Queue: 16})
	defer func() { fe.Close(); fx.mgr.Stop(); fx.logset.Close() }()

	// Queue real work, then flip brownout before it is known to finish:
	// brownout gates admission only, so all of it must still commit.
	pre := make([]*txn.Future, 8)
	for i := range pre {
		pre[i] = fe.Submit(Request{P: fx.deposit, Args: fx.depositArgs(int64(1+i), 1, 1)})
	}
	fe.SetBrownout(true)
	if !fe.Brownout() {
		t.Fatal("Brownout() should report the shedding state")
	}

	fut := fe.Submit(Request{P: fx.deposit, Args: fx.depositArgs(1, 1, 1)})
	if _, err := fut.Wait(); !errors.Is(err, ErrBrownout) {
		t.Fatalf("brownout submit err = %v, want ErrBrownout", err)
	}
	if err := fe.Submit(Request{P: fx.deposit, Args: fx.depositArgs(1, 1, 1), NoWait: true}).Err(); !errors.Is(err, ErrBrownout) {
		t.Fatalf("NoWait Submit during brownout err = %v, want ErrBrownout", err)
	}
	if s := fe.ShedStats(); s.Brownout != 2 {
		t.Fatalf("shed stats = %+v, want two brownout sheds", s)
	}
	for i, f := range pre {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("queued-before-brownout future %d failed: %v", i, err)
		}
	}

	fe.SetBrownout(false)
	if _, err := fe.Submit(Request{P: fx.deposit, Args: fx.depositArgs(1, 1, 1)}).Wait(); err != nil {
		t.Fatalf("post-brownout submit failed: %v", err)
	}
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
