// pacmand is the network daemon in front of a pacman instance: it Launches
// a workload blueprint on simulated devices and serves the wire protocol
// (docs/PROTOCOL.md) over TCP and/or a unix socket — length-prefixed binary
// frames, per-connection pipelining with out-of-order completion as epochs
// release, and backpressure frames when the admission queue fills.
//
//	pacmand                                  # smallbank on tcp 127.0.0.1:7733
//	pacmand -unix /tmp/pacman.sock           # also (or only) a unix socket
//	pacmand -workload tpcc -logging physical # workload / durability scheme
//	kill -TERM $pid                          # graceful drain, then exit
//
// On SIGINT/SIGTERM the daemon drains: it stops accepting, announces
// GoAway, rejects new submissions with CodeDraining, settles in-flight
// durable-commit futures, then flushes group commit and exits. A second
// signal exits immediately.
//
// The storage devices are the repo's deterministic simulated SSDs, so the
// daemon is a self-contained, dependency-free process; the
// crash→Restart→serve path it exists for is exercised end to end (with the
// daemon killed mid-load and the durability oracle verifying every
// acknowledged commit) by `pacman-bench -exp net` and the network torture
// cycle in internal/torture.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pacman"
	"pacman/internal/shard"
	"pacman/internal/wire"
	"pacman/internal/workload"
)

func main() {
	tcp := flag.String("tcp", "127.0.0.1:7733", "TCP listen address (empty to disable)")
	unix := flag.String("unix", "", "unix socket path (empty to disable)")
	wk := flag.String("workload", "smallbank", "blueprint to launch: smallbank, tpcc, or bank")
	logging := flag.String("logging", "command", "durability scheme: command, physical, or logical")
	devices := flag.Int("devices", 2, "simulated log devices")
	epoch := flag.Duration("epoch", 5*time.Millisecond, "group-commit epoch interval (durable latency floor)")
	workers := flag.Int("workers", 4, "frontend session-pool size")
	queue := flag.Int("queue", 0, "admission queue capacity (default 32x workers; full queue => backpressure frames)")
	window := flag.Int("window", wire.DefaultWindow, "per-connection in-flight window granted in HelloAck")
	shards := flag.Int("shards", 0, "cluster width: launch this daemon as one member of an N-shard smallbank cluster (0 = standalone)")
	shardIdx := flag.Int("shard", 0, "this daemon's shard index in [0, shards)")
	customers := flag.Int("customers", 0, "smallbank customer count for cluster members (0 = workload default)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight futures on shutdown")
	verbose := flag.Bool("v", false, "log connection-level diagnostics")
	flag.Parse()

	if *tcp == "" && *unix == "" {
		log.Fatal("pacmand: nothing to listen on (set -tcp and/or -unix)")
	}

	var kind pacman.LogKind
	switch *logging {
	case "command":
		kind = pacman.CommandLogging
	case "physical":
		kind = pacman.PhysicalLogging
	case "logical":
		kind = pacman.LogicalLogging
	default:
		log.Fatalf("pacmand: unknown -logging %q", *logging)
	}

	opts := pacman.Options{
		Logging:       kind,
		Devices:       *devices,
		EpochInterval: *epoch,
		// Watchdog transitions (brownout entry/exit with the breached
		// signal) are rare, operator-facing events: always logged.
		Health: pacman.HealthConfig{Logf: log.Printf},
	}
	var bp pacman.Blueprint
	served := *wk
	if *shards > 0 {
		// Cluster member: the blueprint (2PC status table and pieces
		// included) and the adaptive-logging policy come from the cluster
		// description, and the seed covers only this shard's partition.
		// The router in front (pacman-router) must be sized identically.
		if *wk != "smallbank" {
			log.Fatalf("pacmand: sharded clusters serve smallbank, not %q", *wk)
		}
		if *shardIdx < 0 || *shardIdx >= *shards {
			log.Fatalf("pacmand: -shard %d out of range [0, %d)", *shardIdx, *shards)
		}
		cluster := shard.NewSmallbankCluster(shard.Config{Shards: *shards, Customers: *customers})
		bp = cluster.ShardBlueprint(*shardIdx)
		opts = cluster.ShardOptions(opts)
		served = fmt.Sprintf("smallbank shard %d/%d", *shardIdx, *shards)
	} else {
		var spec workload.BlueprintSpec
		switch *wk {
		case "smallbank":
			spec = workload.Spec(workload.NewSmallbank(workload.DefaultSmallbankConfig()))
		case "tpcc":
			cfg := workload.DefaultTPCCConfig()
			cfg.DisableInserts = true
			spec = workload.Spec(workload.NewTPCC(cfg))
		case "bank":
			spec = workload.Spec(workload.NewBank(1000))
		default:
			log.Fatalf("pacmand: unknown -workload %q", *wk)
		}
		bp = pacman.Blueprint{Tables: spec.Tables, Procedures: spec.Procs, Seed: spec.Seed}
	}

	db, err := pacman.Launch(bp, opts)
	if err != nil {
		log.Fatalf("pacmand: launch: %v", err)
	}

	scfg := wire.ServerConfig{Workers: *workers, Queue: *queue, Window: *window}
	if *verbose {
		scfg.Logf = log.Printf
	}
	srv := wire.NewServer(scfg)
	if err := srv.Attach(db); err != nil {
		log.Fatalf("pacmand: attach: %v", err)
	}
	if *tcp != "" {
		addr, err := srv.Listen("tcp", *tcp)
		if err != nil {
			log.Fatalf("pacmand: listen tcp: %v", err)
		}
		log.Printf("pacmand: serving %s (%v) on tcp %s", served, kind, addr)
	}
	if *unix != "" {
		addr, err := srv.Listen("unix", *unix)
		if err != nil {
			log.Fatalf("pacmand: listen unix: %v", err)
		}
		log.Printf("pacmand: serving %s (%v) on unix %s", served, kind, addr)
	}

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	sig := <-sigCh
	log.Printf("pacmand: %v: draining (up to %v)...", sig, *drainTimeout)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "pacmand: second signal, exiting immediately")
		os.Exit(1)
	}()
	srv.Drain(*drainTimeout)
	db.Close() // flush group commit
	if *unix != "" {
		os.Remove(*unix)
	}
	log.Printf("pacmand: drained, bye")
}
