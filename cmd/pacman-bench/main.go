// pacman-bench regenerates the tables and figures of the paper's
// evaluation. Each experiment prints the same rows/series the paper plots.
//
//	pacman-bench -exp fig14            # one experiment, bench scale
//	pacman-bench -exp all -full        # everything, full scale (slow)
//	pacman-bench -list                 # enumerate experiments
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pacman/internal/harness"
)

var experiments = map[string]func(io.Writer, harness.Scale) error{
	"fig11a":     func(w io.Writer, s harness.Scale) error { return harness.Fig11(w, s, 1) },
	"fig11b":     func(w io.Writer, s harness.Scale) error { return harness.Fig11(w, s, 2) },
	"table1":     harness.Table1,
	"fig12":      harness.Fig12,
	"fig13":      harness.Fig13,
	"fig14":      harness.Fig14,
	"fig15":      harness.Fig15,
	"fig16":      harness.Fig16,
	"fig17":      harness.Fig17,
	"fig18":      harness.Fig18,
	"fig19":      harness.Fig19,
	"fig20":      harness.Fig20,
	"fig21":      harness.Fig21,
	"table2":     harness.Table2,
	"table3":     harness.Table3,
	"latency":    harness.FigLatency,
	"throughput": harness.FigThroughput,
	"mixed":      harness.FigMixed,
	"restart":    restartSmoke,
	"torture":    tortureExp,
	"net":        netExp,
	"shard":      shardExp,
	"gray":       grayExp,
	"scaling":    harness.FigScaling,
}

// benchResult is the machine-readable record one experiment run emits when
// -json is set, written to BENCH_<experiment>.json.
type benchResult struct {
	Experiment string  `json:"experiment"`
	Scale      string  `json:"scale"`
	Workers    int     `json:"workers"`
	DurationMS float64 `json:"duration_ms"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	OK         bool    `json:"ok"`
	Error      string  `json:"error,omitempty"`
	// Output is the experiment's full text report (the rows/series the
	// paper plots), preserved so downstream tooling can diff runs.
	Output string `json:"output"`
}

// writeJSON persists one experiment's result as BENCH_<id>.json under dir.
func writeJSON(dir, id string, res benchResult) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_"+id+".json"), append(b, '\n'), 0o644)
}

func main() {
	exp := flag.String("exp", "", "experiment id (fig11a..fig21, table1..table3, latency, throughput, mixed, restart, torture, net, shard, gray, scaling, or 'all')")
	full := flag.Bool("full", false, "full scale (minutes per experiment) instead of bench scale")
	list := flag.Bool("list", false, "list experiment ids")
	duration := flag.Duration("duration", 0, "override logging-run duration")
	workers := flag.Int("workers", 0, "override OLTP worker count")
	warehouses := flag.Int("warehouses", 0, "override TPC-C warehouse count")
	seed := flag.Int64("seed", 0, "torture, net and gray experiments: first torture seed to sweep (reproduces a reported oracle violation)")
	iters := flag.Int("iters", 0, "torture, net and gray experiments: how many consecutive torture seeds to sweep")
	cycles := flag.Int("cycles", 0, "torture, net and gray experiments: crash/restart cycles per torture run (violation reports print the value to pass)")
	txns := flag.Int("txns", 0, "torture, net and gray experiments: transaction budget per torture cycle (violation reports print the value to pass)")
	force := flag.Bool("force", false, "torture, net and gray experiments: with -seed, pin the forced crash-during-Restart flag of the reproduced run")
	jsonDir := flag.String("json", "", "also write machine-readable BENCH_<experiment>.json results into this directory")
	flag.Parse()

	ids := make([]string, 0, len(experiments))
	for id := range experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	if *list {
		fmt.Println(strings.Join(ids, "\n"))
		return
	}
	scale := harness.DefaultScale(!*full)
	if *duration > 0 {
		scale.Duration = *duration
	}
	if *workers > 0 {
		scale.Workers = *workers
	}
	if *warehouses > 0 {
		scale.Warehouses = *warehouses
	}
	scale.TortureSeed = *seed
	scale.TortureIters = *iters
	scale.TortureCycles = *cycles
	scale.TortureTxns = *txns
	scale.TortureForce = *force

	run := func(id string) {
		fn, ok := experiments[id]
		if !ok {
			log.Fatalf("unknown experiment %q; use -list", id)
		}
		var out io.Writer = os.Stdout
		var buf bytes.Buffer
		if *jsonDir != "" {
			out = io.MultiWriter(os.Stdout, &buf)
		}
		start := time.Now()
		err := fn(out, scale)
		elapsed := time.Since(start)
		if *jsonDir != "" {
			mode := "bench"
			if *full {
				mode = "full"
			}
			res := benchResult{
				Experiment: id,
				Scale:      mode,
				Workers:    scale.Workers,
				DurationMS: float64(scale.Duration.Microseconds()) / 1e3,
				ElapsedMS:  float64(elapsed.Microseconds()) / 1e3,
				OK:         err == nil,
				Output:     buf.String(),
			}
			if err != nil {
				res.Error = err.Error()
			}
			if werr := writeJSON(*jsonDir, id, res); werr != nil {
				log.Fatalf("%s: writing json: %v", id, werr)
			}
		}
		if err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		fmt.Printf("(%s completed in %v)\n\n", id, elapsed.Round(time.Millisecond))
	}

	switch *exp {
	case "":
		log.Fatal("missing -exp; use -list to enumerate")
	case "all":
		for _, id := range ids {
			run(id)
		}
	default:
		for _, id := range strings.Split(*exp, ",") {
			run(strings.TrimSpace(id))
		}
	}
}
