package torture

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"pacman"
	"pacman/internal/simdisk"
)

// TestRunShortCL is the package's own smoke: one short command-logging run
// with a forced crash-during-Restart must pass the oracle. The root-level
// TestTortureShort covers the full CL/PL/LL matrix under -race.
func TestRunShortCL(t *testing.T) {
	st, err := Run(Config{Seed: 42, Cycles: 3, TxnsPerCycle: 200, ForceRecoveryCrash: true})
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
}

// TestPlanDerivationDeterministic: the same seed derives the same fault
// plans — the property the printed reproduction line relies on.
func TestPlanDerivationDeterministic(t *testing.T) {
	devs := []*simdisk.Device{
		simdisk.New("ssd0", simdisk.Unlimited()),
		simdisk.New("ssd1", simdisk.Unlimited()),
	}
	render := func(seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		out := ""
		for i := 0; i < 10; i++ {
			out += servePlan(rng, devs).String() + "|" + recoveryPlan(rng, devs, i == 0).String() + "\n"
		}
		return out
	}
	a, b := render(7), render(7)
	if a != b {
		t.Fatalf("plan derivation not deterministic:\n%s\nvs\n%s", a, b)
	}
	if a == render(8) {
		t.Fatal("different seeds derived identical plans (suspicious)")
	}
}

// TestOracleCatchesLostAck: each of the oracle's read-back checks fires on a
// fabricated recovery that breaks its promise — a pepoch below an acked
// epoch must be flagged, and so must every other broken promise.
func TestOracleCatchesLostAck(t *testing.T) {
	const t0 = 3000
	cases := []struct {
		name  string
		check func(t *testing.T, o *oracle) []string
	}{
		{"pepoch below acked epoch", func(t *testing.T, o *oracle) []string {
			o.absorb([]*journal{{maxAckedEpoch: 50, ackedLogged: 3, acked: 3}}, &Stats{})
			return o.verifyStructure(&pacman.RecoveryResult{Pepoch: 49, ResumeEpoch: 50, Entries: 3})
		}},
		{"total outside interval", func(t *testing.T, o *oracle) []string {
			o.absorb([]*journal{{ackLo: 10, ackHi: 10, maybeLo: -5}}, &Stats{})
			return o.verifyBalances(t0 + 11)
		}},
		{"torn pair", func(t *testing.T, o *oracle) []string {
			o.absorb([]*journal{{stampsMaybe: []stampRec{{pair: 1, val: 7}}}}, &Stats{})
			return o.verifyLedger(map[uint64]int64{pairKeyA(1): 7, pairKeyB(1): 0})
		}},
		{"missing acked stamp", func(t *testing.T, o *oracle) []string {
			o.absorb([]*journal{{stampsAcked: []stampRec{{pair: 2, val: 9}}}}, &Stats{})
			return o.verifyLedger(map[uint64]int64{})
		}},
		{"frozen maybe flips later", func(t *testing.T, o *oracle) []string {
			o.absorb([]*journal{{stampsMaybe: []stampRec{{pair: 3, val: 5}}}}, &Stats{})
			applied := map[uint64]int64{pairKeyA(3): 5, pairKeyB(3): 5}
			if v := o.verifyLedger(applied); len(v) > 0 {
				t.Fatalf("first recovery may apply a maybe: %v", v)
			}
			return o.verifyLedger(map[uint64]int64{}) // the applied stamp vanished
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if v := c.check(t, newOracle(WorkloadSmallbank, t0, 4)); len(v) == 0 {
				t.Fatal("oracle accepted a recovery that broke its promise")
			}
		})
	}
}

// TestViolationReproCommand: the reproduction command reruns the violating
// shape with the full run shape — seed alone is not enough, because the
// fault-plan RNG stream depends on cycles, budget, workers, and the force
// flag. The cluster shape has no experiment, so it prints its Config.
func TestViolationReproCommand(t *testing.T) {
	cfg := Config{Seed: 6, Cycles: 3, TxnsPerCycle: 200, Workers: 4, ForceRecoveryCrash: true}
	cases := []struct {
		name, exp, want string
	}{
		{"inproc", "torture", "pacman-bench -exp torture -seed 6 -iters 1 -cycles 3 -txns 200 -workers 4 -force=true"},
		{"net", "net", "pacman-bench -exp net -seed 6 -iters 1 -cycles 3 -txns 200 -workers 4 -force=true"},
		{"gray", "gray", "pacman-bench -exp gray -seed 6 -iters 1 -cycles 3 -txns 200 -workers 4 -force=true"},
		{"cluster", "", "torture.RunCluster(torture.Config{Seed:6 Cycles:3 "},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			msg := newEngine(cfg, c.exp).violation(3, "balance conservation: ...").Error()
			if !strings.Contains(msg, c.want) {
				t.Fatalf("violation message missing repro command:\n%s\nwant substring %q", msg, c.want)
			}
		})
	}
}

// checkNoLeak fails the test if goroutines started since g0 outlive it:
// everything a run starts (watchdog sweeps, loggers, frontends, servers,
// clients, routers, deadline timers) must be gone once it returns. It
// polls — exits are asynchronous — and allows slack for runtime and test
// goroutines.
func checkNoLeak(t *testing.T, g0 int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > g0+4 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before run, %d after\n%s",
				g0, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
