// Command bench is the repository's benchmark: serve, crash, recover. It
// drives the system only through its public entry points, generates its own
// seeded load, checks that what it got back is correct, and prints every
// metric by name and unit. README.md says why each workload exists and how
// the layer metrics of a traced run map onto the end-to-end ones.
//
//	go run . -workload <name|all> -seed <n> [-seconds <s>] [-trace 0|1] [-json <file>]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"pacman"
	"pacman/internal/proc"
)

// Frozen load parameters; README.md records the sweeps behind them.
const (
	// embeddedWindow is the in-flight cap of one generator on a Frontend.
	embeddedWindow = 16384
	// setupRounds is how many times a cheap set-up is repeated per run.
	setupRounds = 3
	// watchdogLimit aborts a workload that has stopped making progress.
	watchdogLimit = 90 * time.Second
)

// scenario is one named workload of the benchmark.
type scenario struct {
	name string
	why  string
	// run measures the workload. tr is nil in an untraced run; in a traced
	// one the same run records spans into it and reports the per-layer
	// metrics of the layers it passes through.
	run func(rep *report, w *scenario, rc *runCfg, tr *tracer) error
	// mix is what one instance executes. The routed workload's own mix
	// needs the cluster (routed.go); its entry here is one shard's share of
	// it, for the bare-execution probe of the traced run.
	mix  func() *mix
	kind pacman.LogKind
	// rate is the open-loop rate of the paced phase, in txn/s.
	rate float64
	// Sizes at -seconds 10; they scale with the run length.
	verifyTxns int
	logTxns    int
	ckptAfter  float64
}

var workloads = []*scenario{
	{
		name: "fwd-smallbank-cl",
		why:  "embedded Smallbank, command logging: 2 us executes and 33 B/txn, so frontend queues, futures and wal release fan-out do the work",
		run:  runFwd, mix: smallbankMix,
		kind: pacman.CommandLogging, rate: 100_000, verifyTxns: 60_000,
	},
	{
		name: "fwd-tpcc-pl",
		why:  "embedded TPC-C, physical logging: 9 us executes and 25x the log bytes, so proc/txn execution, tuple-level wal encode and device writes do the work",
		run:  runFwd, mix: tpccLogging,
		kind: pacman.PhysicalLogging, rate: 30_000, verifyTxns: 20_000,
	},
	{
		name: "routed-smallbank-cl",
		why:  "client, wire.Server, shard.Router and two shard servers on loopback TCP, one request in ten a cross-shard 2PC: wire, client and shard do the work the embedded workloads bypass",
		run:  runRouted, mix: shardDeposits,
		kind: pacman.CommandLogging, rate: 18_000, verifyTxns: 20_000,
	},
	{
		name: "recover-tpcc-clrp",
		why:  "restart from a TPC-C command log: reload is negligible, so sched, analysis and proc replay (the paper's CLR-P path) do the work",
		run:  runRecover, mix: tpccHistory,
		kind: pacman.CommandLogging, rate: 15_000, logTxns: 50_000,
	},
	{
		name: "recover-tpcc-plr-ckpt",
		why:  "restart from a checkpoint plus a TPC-C physical log: checkpoint restore, wal reload, latch replay and index rebuild do the work; sched and analysis do none",
		run:  runRecover, mix: tpccCheckpointed,
		kind: pacman.PhysicalLogging, rate: 15_000, logTxns: 50_000, ckptAfter: 0.4,
	},
}

// runCfg is what the command line asked of one run.
type runCfg struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	// sweepWindow, when positive, replaces the frozen in-flight caps.
	sweepWindow int
}

// scaled sizes a count fixed at -seconds 10 to the requested run length.
func (rc *runCfg) scaled(n int) int {
	if s := int(float64(n) * rc.seconds / 10); s > 200 {
		return s
	}
	return 200
}

// segment is the length of one serving segment when share of the run length
// is spent on n rounds of a peak and a paced segment, each preceded by a
// fifth of its length as warm-up.
func (rc *runCfg) segment(share float64, n int) time.Duration {
	// Never under six epochs: a shorter window may see no group commit.
	return max(60*time.Millisecond, time.Duration(float64(rc.budget(share))/(2*1.2*float64(n))))
}

// window is the frozen in-flight cap unless -window overrides it for a
// sweep.
func (rc *runCfg) window(frozen int) int {
	if rc.sweepWindow > 0 {
		return rc.sweepWindow
	}
	return frozen
}

// times is how often a repeated step runs: its full count in a run of
// ordinary length, about a quarter of it in the sub-second runs of the
// tests, where every repetition costs a populate and adds nothing.
func (rc *runCfg) times(full int) int {
	if rc.seconds >= 5 {
		return full
	}
	return max(1, full/4)
}

// budget is a share of the requested run length.
func (rc *runCfg) budget(share float64) time.Duration {
	return time.Duration(share * rc.seconds * float64(time.Second))
}

func newRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(stream)*7919 + 1))
}

func isAbort(err error) bool { return errors.Is(err, proc.ErrAborted) }

func find(name string) *scenario {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runOne runs a workload under the watchdog and returns its result line.
func runOne(out io.Writer, w *scenario, rc *runCfg) result {
	fmt.Fprintf(out, "== %s  seed=%d seconds=%g trace=%v\n", w.name, rc.seed, rc.seconds, rc.trace)
	rep := newReport(out)
	// Start the resident-set high-water mark over, so that a run of all the
	// workloads in one process reports each one's own peak. Where the kernel
	// refuses the write, the mark is the process's and the first workload's.
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o200)
	watchdog := time.AfterFunc(watchdogLimit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s made no progress for %v; goroutines:\n", w.name, watchdogLimit)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		os.Exit(3)
	})
	defer watchdog.Stop()
	t0 := time.Now()
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	if err := w.run(rep, w, rc, tr); err != nil {
		rep.check(false, "%s: %v", w.name, err)
	}
	if tr != nil {
		// What tracing costs is the difference between these two and the
		// same metrics of the untraced run.
		rep.set("trace.tps", rep.values["tps"], "tps of this traced run")
		rep.set("trace.restart_s", rep.values["restart_s"], "restart_s of this traced run")
		if err := tr.finish(rep, rc.outDir, w.name); err != nil {
			rep.check(false, "%s: %v", w.name, err)
		}
	}
	if rss, err := peakRSSMiB(); err != nil {
		rep.check(false, "peak RSS: %v", err)
	} else {
		rep.set("peak_rss_mb", rss, "VmHWM of the benchmark process")
	}
	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	res := rep.finish(defs)
	fmt.Fprintf(out, "== %s  correct=%v attempted=%d failed=%d wall=%.1fs\n", w.name, res.Correct, res.Attempted, res.Failed, time.Since(t0).Seconds())
	return res
}

func main() {
	var rc runCfg
	name := flag.String("workload", "all", "workload name, or all")
	flag.Int64Var(&rc.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&rc.seconds, "seconds", 10, "length of the measured part of a run")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&rc.outDir, "out", "out", "directory for span files")
	flag.IntVar(&rc.sweepWindow, "window", 0, "override the frozen in-flight cap per generator (sweeps only)")
	jsonPath := flag.String("json", "", "also write the results, with the host fingerprint, to this file")
	spec := flag.Bool("spec", false, "print BENCHMARK.json as this program declares it, and exit")
	flag.Parse()
	if *spec {
		fmt.Println(benchmarkSpec())
		return
	}
	rc.trace = *trace != 0
	if rc.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		os.Exit(2)
	}

	var todo []*scenario
	if *name == "all" {
		todo = workloads
	} else if w := find(*name); w != nil {
		todo = []*scenario{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}

	results := map[string]result{}
	ok := true
	for _, w := range todo {
		res := runOne(os.Stdout, w, &rc)
		results[w.name] = res
		ok = ok && res.Correct
		fmt.Println(res.line())
		runtime.GC()
	}
	if *jsonPath != "" {
		if err := writeRunSet(*jsonPath, &rc, results); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
	}
	if !ok {
		os.Exit(1)
	}
}
