package pacman

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pacman/internal/tuple"
	"pacman/internal/wal"
)

// TestSubmitRequestAdmission drives every Mode × NoWait through the one
// admission path, SubmitRequest:
//   - an unknown procedure resolves with an error that is not ErrQueueFull,
//     so pacmand answers it with a Result frame, not Backpressure;
//   - with the only pool worker wedged and the queue full, a NoWait request
//     resolves ErrQueueFull before SubmitRequest returns and its deadline
//     never overrides that, while a blocking request waits for space;
//   - a ValueLogProcs member is logged as a Dist record whatever the mode,
//     and every other request is logged as its mode says.
func TestSubmitRequestAdmission(t *testing.T) {
	for _, mode := range []Mode{ModeCommand, ModeAdHoc, ModeDist} {
		for _, noWait := range []bool{false, true} {
			t.Run(fmt.Sprintf("mode=%d/nowait=%v", mode, noWait), func(t *testing.T) {
				testSubmitRequestAdmission(t, mode, noWait)
			})
		}
	}
}

func testSubmitRequestAdmission(t *testing.T, mode Mode, noWait bool) {
	d, _ := openBank(Options{
		Logging:       CommandLogging,
		EpochInterval: time.Millisecond,
		ValueLogProcs: []string{"Transfer"},
	})
	d.Start()
	fe := d.MustFrontend(FrontendConfig{Workers: 1, Queue: 1})

	err := fe.SubmitRequest(Request{Proc: "Nope", Mode: mode, NoWait: noWait}).Err()
	if err == nil || errors.Is(err, ErrQueueFull) {
		t.Fatalf("unknown procedure err = %v, want a non-queue-full error", err)
	}

	transferTS, err := fe.SubmitRequest(Request{Proc: "Transfer", Args: Args{A(tuple.I(1)), A(tuple.I(5))}, Mode: mode, NoWait: noWait}).Wait()
	if err != nil {
		t.Fatalf("value-logged Transfer: %v", err)
	}
	depositTS, err := fe.SubmitRequest(Request{Proc: "Deposit", Args: depositArgs(2, 1), Mode: mode, NoWait: noWait}).Wait()
	if err != nil {
		t.Fatalf("Deposit: %v", err)
	}

	// Wedge the pool worker: it blocks at commit on a row latch the test
	// holds, and one more request fills the one-slot queue.
	row, _ := d.Table("Current").GetRow(3)
	row.Lock()
	wedged := fe.Submit("Deposit", depositArgs(3, 1))
	waitHealth(t, "worker dequeue", func() bool { return fe.QueueDepth() == 0 })
	queued := fe.Submit("Deposit", depositArgs(4, 1))

	pending := []*Future{wedged, queued}
	if noWait {
		fut := fe.SubmitRequest(Request{Proc: "Deposit", Args: depositArgs(5, 1), Mode: mode,
			Deadline: time.Now().Add(5 * time.Millisecond), NoWait: true})
		if !fut.Resolved() || !errors.Is(fut.Err(), ErrQueueFull) {
			t.Fatalf("NoWait on a full queue: resolved=%v, want ErrQueueFull at once", fut.Resolved())
		}
		time.Sleep(10 * time.Millisecond)
		if err := fut.Err(); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("after the deadline err = %v, want ErrQueueFull", err)
		}
		row.Unlock()
	} else {
		submitted := make(chan *Future, 1)
		go func() {
			submitted <- fe.SubmitRequest(Request{Proc: "Deposit", Args: depositArgs(5, 1), Mode: mode})
		}()
		select {
		case <-submitted:
			t.Fatal("blocking SubmitRequest returned while the queue was full")
		case <-time.After(10 * time.Millisecond):
		}
		row.Unlock()
		pending = append(pending, <-submitted)
	}
	for i, f := range pending {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("request %d after unwedge: %v", i, err)
		}
	}
	if s := fe.ShedStats(); s != (ShedStats{}) {
		t.Fatalf("shed stats = %+v, want none", s)
	}
	fe.Close()
	d.Close()

	entries, _, err := wal.ReloadAll(d.Devices(), d.PersistedEpoch(), 1)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, e := range entries {
		switch e.TS {
		case transferTS:
			found++
			if !e.Dist {
				t.Errorf("ValueLogProcs member logged as kind %v dist=%v, want Dist", e.Kind, e.Dist)
			}
		case depositTS:
			found++
			wantKind := wal.EntryCommand
			if mode != ModeCommand {
				wantKind = wal.EntryTuple
			}
			if e.Kind != wantKind || e.Dist != (mode == ModeDist) {
				t.Errorf("Deposit logged as kind %v dist=%v under mode %d", e.Kind, e.Dist, mode)
			}
		}
	}
	if found != 2 {
		t.Fatalf("found %d of the 2 checked records in the log", found)
	}
}
