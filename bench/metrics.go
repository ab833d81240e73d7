package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef declares one metric the benchmark reports. The lists below are
// the program's half of the contract in BENCHMARK.json; bench_test.go fails
// when the two disagree on a name, unit, direction or bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // share of the parent's median a change may cost; end-to-end only
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them from its untraced run.
var endToEnd = []metricDef{
	{"tps", "txn/s", "higher", 0.25},
	{"durable_p50_ms", "ms", "lower", 0.20},
	{"durable_p99_ms", "ms", "lower", 0.25},
	{"restart_s", "s", "lower", 0.25},
	{"log_bytes_per_txn", "B/txn", "lower", 0.05},
	{"allocs_per_txn", "allocs/txn", "lower", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the ledger of the traced run: one layer's time, count or
// ratio, measured by the benchmark from outside that layer. A workload
// reports 0 for a layer it does not pass through. The last two are the
// traced run's own tps and restart_s: against the untraced run's they are
// what tracing costs.
var perLayer = []metricDef{
	{Name: "frontend.submit_call_ns", Unit: "ns", Better: "lower"},
	{Name: "frontend.queue_exec_p50_us", Unit: "us", Better: "lower"},
	{Name: "frontend.queue_exec_p99_us", Unit: "us", Better: "lower"},
	{Name: "frontend.shed_frac", Unit: "ratio", Better: "lower"},
	{Name: "txn.exec_us", Unit: "us", Better: "lower"},
	{Name: "txn.abort_frac", Unit: "ratio", Better: "lower"},
	{Name: "wal.group_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.group_wait_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.sync_ewma_us", Unit: "us", Better: "lower"},
	{Name: "wal.syncs_per_s", Unit: "1/s", Better: "lower"},
	{Name: "simdisk.write_busy_frac", Unit: "ratio", Better: "lower"},
	{Name: "simdisk.mb_written_per_s", Unit: "MiB/s", Better: "lower"},
	{Name: "mvcc.reclaimed_per_txn", Unit: "count", Better: "lower"},
	{Name: "mvcc.max_chain", Unit: "count", Better: "lower"},
	{Name: "wire.encode_submit_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.parse_submit_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.direct_tps", Unit: "txn/s", Better: "higher"},
	{Name: "wire.direct_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.submit_call_ns", Unit: "ns", Better: "lower"},
	{Name: "client.retries_per_ktxn", Unit: "count", Better: "lower"},
	{Name: "client.shed", Unit: "count", Better: "lower"},
	{Name: "shard.router_added_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.twopc_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.twopc_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.cross_frac", Unit: "ratio", Better: "lower"},
	{Name: "wal.manifest_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.populate_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.build_gdg_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.reload_alone_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.reload_mb_per_s", Unit: "MiB/s", Better: "higher"},
	{Name: "wal.reload_wall_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.reload_cpu_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.reload_stall_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.log_total_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.index_rebuild_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.replay_alone_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.serial_clr_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.speedup_vs_clr", Unit: "ratio", Better: "higher"},
	{Name: "sched.work_frac", Unit: "ratio", Better: "higher"},
	{Name: "sched.check_frac", Unit: "ratio", Better: "lower"},
	{Name: "sched.sched_frac", Unit: "ratio", Better: "lower"},
	{Name: "sched.load_frac", Unit: "ratio", Better: "lower"},
	{Name: "checkpoint.write_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.bytes", Unit: "B", Better: "lower"},
	{Name: "checkpoint.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.reload_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.repair_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "pacman.first_durable_ms", Unit: "ms", Better: "lower"},
	{Name: "pacman.restart_other_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.tps", Unit: "txn/s", Better: "higher"},
	{Name: "trace.restart_s", Unit: "s", Better: "lower"},
}

// value is one reported number with its unit, as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report collects what one run measured: metric values, operation counts,
// and every correctness check that did not hold.
type report struct {
	out       io.Writer
	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func newReport(out io.Writer) *report {
	return &report{out: out, values: map[string]float64{}}
}

// set records a metric and prints it with its unit; note carries what the
// number was taken over (sample counts, segment values).
func (r *report) set(name string, v float64, note string) {
	r.values[name] = v
	fmt.Fprintf(r.out, "  %-28s %14.4f %-10s %s\n", name, v, unitOf(name), note)
}

// info prints a number that is not part of the contract.
func (r *report) info(format string, args ...any) {
	fmt.Fprintf(r.out, "  # "+format+"\n", args...)
}

// check records a correctness failure when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		r.problems = append(r.problems, msg)
		fmt.Fprintf(r.out, "  CHECK FAILED: %s\n", msg)
	}
}

// ops folds one phase's operation counts into the run's totals.
func (r *report) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// finish builds the result line from the declared metric list, failing the
// run when a declared metric was not measured or is not a finite number.
func (r *report) finish(defs []metricDef) result {
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.check(false, "metric %s has no finite value (measured=%v value=%v)", d.Name, ok, v)
			v = 0
		}
		res.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		r.check(false, "no operation attempted")
		res.Attempted = 1
	}
	// More than one operation in a thousand failing fails the run, as does
	// any check above.
	r.check(float64(res.Failed) <= 0.001*float64(res.Attempted),
		"%d of %d operations failed", res.Failed, res.Attempted)
	res.Correct = len(r.problems) == 0
	return res
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

func (res result) line() string {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	return string(b)
}

// percentile returns the exact order statistic at rank ceil(p/100·n) of an
// ascending-sorted sample (nearest-rank; no interpolation, no buckets).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value (mean of the two middle values for an
// even count) without reordering its argument.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// trimmedMean is the mean of the values left after the smallest and the
// largest are dropped. Closed-loop throughput on two contended cores
// settles, per instance, anywhere in a band some 15 % wide, which a median
// of few rounds jumps across; the mean uses every round, and dropping the
// extremes keeps one stalled round from moving it.
func trimmedMean(xs []float64) float64 {
	if len(xs) < 3 {
		return mean(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return mean(s[1 : len(s)-1])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// fmtList renders segment values for the note column.
func fmtList(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", x)
	}
	return s + "]"
}

// Contract constants of BENCHMARK.json that are not metrics.
const (
	specRunSeconds = 10
	specDir        = "bench"
)

// benchmarkSpec renders BENCHMARK.json from the tables above, so that the
// file at the root of the repository is generated, not maintained:
//
//	bash bench/run.sh -spec > BENCHMARK.json
func benchmarkSpec() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", specDir + "/run.sh"}, Paths: []string{specDir}, RunSeconds: specRunSeconds}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(b)
}
