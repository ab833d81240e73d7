package main

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pacman"
	"pacman/client"
	"pacman/internal/harness"
	"pacman/internal/metrics"
	"pacman/internal/torture"
	"pacman/internal/wire"
	"pacman/internal/workload"
)

// netExp benches the wire protocol end to end on loopback TCP: a pacmand
// server in front of a Smallbank instance under command logging, driven by
// the public client package with pipelined bounded windows. Every number is
// client-observed — throughput counts durable acks at the caller, and the
// latency histogram is submit-to-durable across the socket, so the report
// is what a remote application would actually see (group-commit epoch
// release included). A short network torture phase follows: daemon killed
// mid-load, recovered, proved serving over the socket, oracle verified.
func netExp(w io.Writer, s harness.Scale) error {
	spec := workload.Spec(workload.NewSmallbank(workload.DefaultSmallbankConfig()))
	bp := pacman.Blueprint{Tables: spec.Tables, Procedures: spec.Procs, Seed: spec.Seed}
	db, err := pacman.Launch(bp, pacman.Options{
		Logging:       pacman.CommandLogging,
		EpochInterval: time.Millisecond,
	})
	if err != nil {
		return err
	}
	srv := wire.NewServer(wire.ServerConfig{Workers: s.Workers, Queue: 64 * s.Workers})
	if err := srv.Attach(db); err != nil {
		return err
	}
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}

	nClients, window := s.Workers, 64
	fmt.Fprintln(w, "=== Wire protocol loopback: client-observed throughput and durable latency ===")
	fmt.Fprintf(w, "smallbank/CL over tcp %s: %d clients x window %d, %v\n", addr, nClients, window, s.Duration)

	var (
		hist      metrics.Histogram
		committed atomic.Int64
		stop      atomic.Bool
		wg        sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := client.Dial("tcp", addr.String(), client.Config{Window: window})
			if err != nil {
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(int64(c)*7919 + 1))
			inflight := make([]*client.Future, 0, window)
			reap := func(f *client.Future) {
				if _, err := f.Wait(); err == nil {
					committed.Add(1)
					hist.Record(f.Latency())
				}
			}
			for !stop.Load() {
				c1 := 1 + rng.Int63n(10_000)
				amt := pacman.A(pacman.F(float64(1 + rng.Int63n(99))))
				inflight = append(inflight, cl.Submit("DepositChecking", pacman.Args{pacman.A(pacman.I(c1)), amt}))
				if len(inflight) == window {
					reap(inflight[0])
					inflight = inflight[1:]
				}
			}
			for _, f := range inflight {
				reap(f)
			}
		}(c)
	}
	time.Sleep(s.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	srv.Drain(10 * time.Second)
	db.Close()

	n := committed.Load()
	fmt.Fprintf(w, "committed %d durable txns in %v: %.0f tps\n", n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds())
	fmt.Fprintf(w, "durable latency: p50 %v  p99 %v  max %v\n",
		hist.Percentile(50).Round(time.Microsecond), hist.Percentile(99).Round(time.Microsecond), hist.Max().Round(time.Microsecond))

	// Crash phase: the same wire path under the torture oracle — kill the
	// daemon mid-conversation, Restart, re-Listen, prove serving through a
	// prober that survives the outage. A network violation's repro line
	// reruns this phase with its seed and shape.
	cycles, txns := 3, 250
	if !s.Short {
		cycles, txns = 4, 400
	}
	for _, cfg := range tortureRuns(s, 1, cycles, txns, true) {
		st, err := torture.RunNet(cfg, "tcp")
		if err != nil {
			fmt.Fprintf(w, "network torture seed %d: FAILED\n%v\n", cfg.Seed, err)
			return err
		}
		fmt.Fprintf(w, "network torture seed %d: %d kill/restart cycles, %d acked, %d maybe, %d crashes mid-recovery, %d stamps — oracle green\n",
			cfg.Seed, st.Cycles, st.Acked, st.Maybe, st.RecoveryCrashes, st.Stamps)
	}
	return nil
}
