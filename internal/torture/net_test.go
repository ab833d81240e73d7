package torture

import (
	"runtime"
	"testing"
)

// TestRunNetShort is the network cycle's smoke: a short run over a unix
// socket in which the daemon is killed mid-load every cycle, recovered with
// a forced crash-during-Restart, and proved serving again through a client
// that survives every outage — all under the same durability/atomicity
// oracle as the in-process runs.
func TestRunNetShort(t *testing.T) {
	g0 := runtime.NumGoroutine()
	st, err := RunNet(Config{Seed: 42, Cycles: 3, TxnsPerCycle: 200, ForceRecoveryCrash: true}, "unix")
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles != 3 || st.Acked == 0 || st.Stamps == 0 {
		t.Fatalf("implausible stats: %s", st)
	}
	if st.RecoveryCrashes == 0 {
		t.Fatalf("forced recovery crash never happened: %s", st)
	}
	t.Logf("stats: %s", st)
	checkNoLeak(t, g0)
}

// TestRunNetTCP: the same cycle over loopback TCP, proving nothing in the
// crash→Restart→serve path depends on unix-socket semantics.
func TestRunNetTCP(t *testing.T) {
	st, err := RunNet(Config{Seed: 7, Cycles: 2, TxnsPerCycle: 120}, "tcp")
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles != 2 || st.Acked == 0 {
		t.Fatalf("implausible stats: %s", st)
	}
	t.Logf("stats: %s", st)
}
