package torture

import (
	"math/rand"
	"runtime"
	"testing"

	"pacman/internal/simdisk"
)

// TestRunGrayShort is the gray-failure smoke: two cycles of slow/stuck/hung
// devices under deadline-bounded traffic must trip the watchdog, clear it
// after the fault lifts, pass the durability oracle across the ending crash,
// and leak no goroutines. The root-level race target runs the same path
// under -race.
func TestRunGrayShort(t *testing.T) {
	g0 := runtime.NumGoroutine()
	st, err := RunGray(Config{Seed: 11, Cycles: 2, TxnsPerCycle: 600})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles != 2 || st.Acked == 0 {
		t.Fatalf("implausible stats: %s", st)
	}
	if st.Brownouts < int64(st.Cycles) {
		t.Fatalf("every gray cycle must trip the watchdog at least once: %s", st)
	}
	t.Logf("stats: %s", st)

	checkNoLeak(t, g0)
}

// TestGrayPlanDeterministic: gray plans derive purely from the cycle RNG,
// like every other torture plan — the reproduction-line property.
func TestGrayPlanDeterministic(t *testing.T) {
	devs := []*simdisk.Device{
		simdisk.New("ssd0", simdisk.Unlimited()),
		simdisk.New("ssd1", simdisk.Unlimited()),
	}
	render := func(seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		out := ""
		for i := 0; i < 10; i++ {
			p, flavor := grayPlan(rng, devs)
			out += flavor + ":" + p.String() + "\n"
		}
		return out
	}
	a, b := render(3), render(3)
	if a != b {
		t.Fatalf("gray plan derivation not deterministic:\n%s\nvs\n%s", a, b)
	}
	if a == render(4) {
		t.Fatal("different seeds derived identical gray plans (suspicious)")
	}
}
