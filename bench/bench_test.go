package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// toySeconds scales every workload down to a fraction of a second of
// serving and a few-hundred-transaction logs, which is enough to exercise
// every phase, check and metric.
const toySeconds = 0.4

func runToy(t *testing.T, w *scenario, trace bool) result {
	t.Helper()
	var log strings.Builder
	res := runOne(&log, w, &runCfg{seed: 1, seconds: toySeconds * raceSlowdown, trace: trace, outDir: t.TempDir()})
	if !res.Correct {
		t.Fatalf("%s (trace=%v) failed its checks:\n%s", w.name, trace, log.String())
	}
	return res
}

// TestWorkloadsEmitTheirMetrics runs every workload at toy scale, untraced
// and traced: each must pass its correctness checks and report every metric
// it declares as a finite number, the end-to-end ones never zero.
func TestWorkloadsEmitTheirMetrics(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			// The runs spend much of their time waiting on 10 ms epochs, so
			// they overlap well; the process-wide counters they share are
			// checked for being finite, not for their values.
			t.Parallel()
			for _, mode := range []struct {
				trace bool
				defs  []metricDef
			}{{false, endToEnd}, {true, perLayer}} {
				res := runToy(t, w, mode.trace)
				if len(res.Metrics) != len(mode.defs) {
					t.Errorf("trace=%v: %d metrics reported, %d declared", mode.trace, len(res.Metrics), len(mode.defs))
				}
				for _, d := range mode.defs {
					v, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("trace=%v: %s not reported", mode.trace, d.Name)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("trace=%v: %s = %v", mode.trace, d.Name, v.Value)
					case !mode.trace && v.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, v.Value)
					case v.Unit != d.Unit:
						t.Errorf("%s reported in %q, declared in %q", d.Name, v.Unit, d.Unit)
					}
				}
				if res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("trace=%v: attempted %d, failed %d", mode.trace, res.Attempted, res.Failed)
				}
			}
		})
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the program's own tables and to
// the limits of the contract it is written to.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var onDisk, declared any
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(benchmarkSpec()), &declared); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, declared) {
		t.Error("BENCHMARK.json differs from what the program declares; regenerate it with: bash bench/run.sh -spec > BENCHMARK.json")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloads {
		checkName(w.name)
		if len(w.why) == 0 || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	var setup bool
	for _, d := range endToEnd {
		checkName(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("end-to-end metrics must include setup_s in s, lower is better")
	}
	for _, d := range perLayer {
		checkName(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet or length", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	if specRunSeconds < 1 || specRunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1 to 60", specRunSeconds)
	}
}

// TestPercentileIsAnOrderStatistic pins the percentile code to exact
// nearest-rank order statistics on a known sample.
func TestPercentileIsAnOrderStatistic(t *testing.T) {
	var s []float64
	for i := 1; i <= 200; i++ {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 100}, {99, 198}, {99.5, 199}, {100, 200}, {0, 1}, {0.4, 1}, {0.6, 2}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..200, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples must be NaN")
	}
	if got := median([]float64{5, 1, 4}); got != 4 {
		t.Errorf("median(5,1,4) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
}

// TestServingMixStandsWhereTheHistoryEnded checks that the generator a
// recovered instance is served from continues the history's: after drawing
// the same history, it numbers the next orders as the history's own
// generator would.
func TestServingMixStandsWhereTheHistoryEnded(t *testing.T) {
	img := &image{mk: tpccHistory, phases: []historyPhase{{seed: 3, n: 1500}, {seed: 4, n: 2500}}}
	hist := img.mk()
	for _, ph := range img.phases {
		rng := newRand(ph.seed, 0)
		for i := 0; i < ph.n; i++ {
			hist.next(rng)
		}
	}
	serving := img.servingMix()
	a, b := newRand(9, 0), newRand(9, 0)
	for i := 0; i < 2000; i++ {
		want, got := hist.next(a), serving.next(b)
		if want.name != got.name || !reflect.DeepEqual(want.args, got.args) {
			t.Fatalf("request %d after the history: %s%v from the history's generator, %s%v from the serving one", i, want.name, want.args, got.name, got.args)
		}
	}
	fresh := tpccHistory()
	c, d := newRand(9, 0), newRand(9, 0)
	same := true
	for i := 0; i < 2000 && same; i++ {
		x, y := hist.next(c), fresh.next(d)
		same = x.name == y.name && reflect.DeepEqual(x.args, y.args)
	}
	if same {
		t.Error("a fresh generator draws what one that has drawn the history draws: the test cannot tell them apart")
	}
}

// TestSelfTime checks that a span's self time is its duration minus the
// part of it its children cover, overlapping children counted once.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := tr.t0.Add
	tr.add(1, "restart", "", at(0), at(100))
	tr.add(1, "a", "restart", at(10), at(40))
	tr.add(1, "b", "restart", at(30), at(60)) // overlaps a by 10
	tr.add(1, "c", "a", at(10), at(20))
	self := tr.selfTimes()
	if self["restart"] != 50 || self["a"] != 20 || self["b"] != 30 || self["c"] != 10 {
		t.Errorf("self times %v", self)
	}
}
