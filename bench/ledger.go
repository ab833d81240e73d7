package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"pacman"
	"pacman/internal/engine"
	"pacman/internal/proc"
	"pacman/internal/sched"
	"pacman/internal/wal"
	"pacman/internal/wire"
)

// The per-layer ledger of a traced run. A traced run is the workload's own
// run with a tracer switched on: the same rounds at the same rates with one
// transaction in sampleEvery stamped, the same restarts of the same image.
// The functions here turn what that run saw into the per-layer metrics, and
// re-measure standalone, on the workload's own mix and image, the steps
// that are only visible as calls (bare execution, the frame codec, the
// pieces of a restart). A layer the workload does not pass through reports
// 0: README.md lists which, per workload.

// sampleEvery is the share of forward transactions whose stamps the traced
// run records: one in sixteen.
const sampleEvery = 16

// wireLayers are the metrics of the layers a request reaches only over the
// wire.
var wireLayers = []string{
	"wire.encode_submit_ns", "wire.parse_submit_ns", "wire.direct_tps", "wire.direct_p50_ms",
	"client.submit_call_ns", "client.retries_per_ktxn", "client.shed",
	"shard.router_added_p50_ms", "shard.twopc_p50_ms", "shard.twopc_p99_ms", "shard.cross_frac",
}

// schedLayers are the metrics of command-log replay.
var schedLayers = []string{
	"analysis.build_gdg_ms", "sched.replay_alone_ms", "sched.serial_clr_ms", "sched.speedup_vs_clr",
	"sched.work_frac", "sched.check_frac", "sched.sched_frac", "sched.load_frac",
}

// bypassed books the metrics of layers the workload does not pass through.
func bypassed(rep *report, why string, names ...string) {
	for _, name := range names {
		rep.set(name, 0, "bypassed: "+why)
	}
}

func sampleSlice(samples []txnSample, f func(txnSample) (float64, bool)) []float64 {
	var out []float64
	for _, s := range samples {
		if v, ok := f(s); ok {
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}

// ledgerInstances reports what the instances behind the load counted
// themselves over the workload's rounds, whichever way the load reached
// them.
func ledgerInstances(rep *report, sv *served) {
	pk, pc, lc := &sv.peak, &sv.paced, &sv.layers
	submitted := pk.submitted + pc.submitted
	rep.set("txn.abort_frac", float64(pk.aborted+pc.aborted)/float64(submitted), "futures ending in ErrAborted / submitted")
	rep.set("wal.sync_ewma_us", mean(lc.syncEWMA), fmt.Sprintf("DB.SyncStats at the end of each round, per device %s", fmtList(lc.syncEWMA)))
	rep.set("wal.syncs_per_s", float64(lc.syncs)/sv.wall.Seconds(), fmt.Sprintf("%d syncs over the rounds", lc.syncs))
	rep.set("simdisk.write_busy_frac", median(sv.busy), "busiest device, peak segments")
	rep.set("simdisk.mb_written_per_s", median(sv.mbps), "busiest device, peak segments")
	rep.set("mvcc.reclaimed_per_txn", float64(lc.reclaimed)/float64(pk.acked+pc.acked), fmt.Sprintf("%d versions reclaimed over the rounds", lc.reclaimed))
	rep.set("mvcc.max_chain", float64(lc.maxChain), "longest surviving chain at a round's last collection pass")
}

// ledgerEmbedded reports the layers under a Frontend from the workload's
// own rounds: the stamps of its sampled transactions and the counters of
// its instances.
func ledgerEmbedded(rep *report, ld load, sv *served) {
	pk, pc, lc := &sv.peak, &sv.paced, &sv.layers
	rep.set("frontend.submit_call_ns", float64(pk.submitNs)/float64(pk.submitted), fmt.Sprintf("mean time inside Frontend.Submit over %d peak submissions", pk.submitted))
	qx := sampleSlice(pk.samples, func(s txnSample) (float64, bool) {
		return float64(s.execAt-s.submitStart) / 1e3, s.execAt != 0
	})
	rep.set("frontend.queue_exec_p50_us", percentile(qx, 50), fmt.Sprintf("submit→executed at peak, %d sampled", len(qx)))
	rep.set("frontend.queue_exec_p99_us", percentile(qx, 99), "")
	submitted := pk.submitted + pc.submitted
	rep.set("frontend.shed_frac", float64(lc.shed.Admission+lc.shed.Queue+lc.shed.Brownout)/float64(submitted), fmt.Sprintf("%+v of %d", lc.shed, submitted))
	gw := sampleSlice(pc.samples, func(s txnSample) (float64, bool) {
		return float64(s.durableAt-s.execAt) / 1e6, s.execAt != 0 && s.durableAt != 0
	})
	rep.set("wal.group_wait_p50_ms", percentile(gw, 50), fmt.Sprintf("DurableAt - ExecAt at %.0f txn/s, %d sampled", ld.rate, len(gw)))
	rep.set("wal.group_wait_p99_ms", percentile(gw, 99), "")
	ledgerInstances(rep, sv)
}

// ledgerCluster reports the layers between a client and the shards from the
// routed workload's own rounds, and the step from a shard's own wire server
// to the router from the direct load on shard 0 of the same clusters.
func ledgerCluster(rep *report, ld load, sv *served, direct *directLoad) {
	pk, pc, lc := &sv.peak, &sv.paced, &sv.layers
	rep.set("client.submit_call_ns", float64(pk.submitNs)/float64(pk.submitted), fmt.Sprintf("mean time inside client.Submit over %d peak submissions", pk.submitted))
	rep.set("client.retries_per_ktxn", 1000*float64(lc.retries)/float64(pk.submitted+pc.submitted), fmt.Sprintf("%d backpressure resubmissions", lc.retries))
	rep.set("client.shed", float64(lc.clientShed), "calls failed on an exhausted retry budget")
	rep.set("wire.direct_tps", median(direct.tps), fmt.Sprintf("shard 0's deposits, client → its wire.Server, %d connections x %d in flight; rounds %s", generators, ld.window, fmtList(direct.tps)))
	rep.set("wire.direct_p50_ms", median(direct.p50), fmt.Sprintf("open loop at %.0f txn/s, one shard's share of the paced rate; rounds %s", ld.rate/clusterShards, fmtList(direct.p50)))
	var routed []float64
	for _, lat := range sv.single {
		sort.Float64s(lat)
		routed = append(routed, percentile(lat, 50))
	}
	rep.set("shard.router_added_p50_ms", median(routed)-median(direct.p50),
		fmt.Sprintf("routed single-shard p50 %s ms - wire.direct_p50_ms, medians of rounds", fmtList(routed)))
	sort.Float64s(sv.cross)
	rep.set("shard.twopc_p50_ms", percentile(sv.cross, 50), fmt.Sprintf("cross-shard submissions at %.0f txn/s, %d samples", ld.rate, len(sv.cross)))
	rep.set("shard.twopc_p99_ms", percentile(sv.cross, 99), "")
	rep.set("shard.cross_frac", float64(pk.crossAck+pc.crossAck)/float64(pk.acked+pc.acked), "cross-shard share of acknowledged requests")
	ledgerInstances(rep, sv)
}

// ledgerExec times bare execution: the mix on one session of an instance
// that does not log.
func ledgerExec(rep *report, m *mix, rc *runCfg, tr *tracer) error {
	db, err := launch(m, pacman.NoLogging)
	if err != nil {
		return err
	}
	defer db.Close()
	sess, err := db.NewSession()
	if err != nil {
		return err
	}
	defer sess.Retire()
	rng := newRand(rc.seed, 30)
	var n int
	var spent time.Duration
	id := tr.group()
	start := time.Now()
	for end := start.Add(rc.budget(0.1)); time.Now().Before(end); {
		o := m.next(rng)
		t0 := time.Now()
		_, err := sess.Exec(o.name, o.args)
		spent += time.Since(t0)
		if err != nil && !(o.mayAbort && isAbort(err)) {
			return fmt.Errorf("exec %s: %w", o.name, err)
		}
		n++
	}
	tr.add(id, "txn.exec_loop", "", start, time.Now())
	rep.set("txn.exec_us", float64(spent)/1e3/float64(n), fmt.Sprintf("mean Session.Exec of %s over %d transactions, one goroutine, NoLogging", m.name, n))
	return nil
}

// ledgerCodec times the submit frame codec on generated argument sets.
func ledgerCodec(rep *report, m *mix, rc *runCfg, tr *tracer) error {
	rng := newRand(rc.seed, 31)
	ops := make([]op, rc.scaled(1_000_000))
	for i := range ops {
		ops[i] = m.next(rng)
	}
	frames := make([][]byte, len(ops))
	id := tr.group()
	enc := tr.timed(id, "wire.encode_submit", "", func() {
		for i := range ops {
			frames[i] = wire.AppendSubmit(nil, uint32(i%8), ops[i].args)
		}
	})
	var parseErr error
	dec := tr.timed(id, "wire.parse_submit", "", func() {
		for _, f := range frames {
			if _, _, _, err := wire.ParseSubmit(f, 0); err != nil {
				parseErr = err
			}
		}
	})
	if parseErr != nil {
		return fmt.Errorf("wire.ParseSubmit: %w", parseErr)
	}
	rep.set("wire.encode_submit_ns", float64(enc)/float64(len(ops)), fmt.Sprintf("wire.AppendSubmit over %d generated argument sets", len(ops)))
	rep.set("wire.parse_submit_ns", float64(dec)/float64(len(ops)), "wire.ParseSubmit over the same frames")
	return nil
}

// ledgerRestart takes the workload's own restart apart: what the last timed
// restart of its image reported about itself, and each step of it measured
// again, standalone and from outside, on clones of the same image.
func ledgerRestart(rep *report, own *ownImage, tr *tracer) error {
	res := own.last.res
	if own.kind == pacman.CommandLogging {
		// The dependency-graph schedule, and the serial scheme it must beat.
		serial := own.serial
		if serial == nil {
			cfg := own.cfg
			cfg.Scheme, cfg.Breakdown = pacman.CLR, nil
			var err error
			if serial, _, err = restartClone(rep, own.devs, own.mix, cfg); err != nil {
				return err
			}
			serial.db.Close()
			rep.check(serial.digest == own.last.digest && serial.res.ResumeEpoch == res.ResumeEpoch,
				"serial CLR recovers digest %016x and resumes at epoch %d, CLR-P %016x and %d", serial.digest, serial.res.ResumeEpoch, own.last.digest, res.ResumeEpoch)
		}
		rep.set("sched.serial_clr_ms", float64(serial.res.LogTotal)/1e6, fmt.Sprintf("log recovery under serial CLR, %d entries", serial.res.Entries))
		rep.set("sched.speedup_vs_clr", float64(serial.res.LogTotal)/float64(res.LogTotal), fmt.Sprintf("serial %v / CLR-P %v on %d threads", serial.res.LogTotal, res.LogTotal, nproc))
		for _, sh := range own.cfg.Breakdown.Shares() {
			name := map[string]string{sched.PhaseWork: "sched.work_frac", sched.PhaseLoad: "sched.load_frac",
				sched.PhaseCheck: "sched.check_frac", sched.PhaseSched: "sched.sched_frac"}[sh.Name]
			rep.set(name, sh.Share, fmt.Sprintf("%s: %v summed over threads and the workload's restarts", sh.Name, sh.Time))
		}
		if err := replayAlone(rep, own, tr); err != nil {
			return err
		}
	} else {
		bypassed(rep, "a physical log is replayed without a schedule", schedLayers...)
	}
	rep.set("checkpoint.write_ms", float64(own.ckptDur)/1e6, "DB.Checkpoint() while the history was logged (0: the image has none)")
	rep.set("checkpoint.bytes", float64(own.ckptLen), "size of the checkpoint files")
	rep.set("checkpoint.restore_ms", float64(res.CheckpointTotal)/1e6, fmt.Sprintf("%d rows", res.CheckpointRows))
	rep.set("checkpoint.reload_ms", float64(res.CheckpointReload)/1e6, "reading the checkpoint files")
	rep.set("recovery.index_rebuild_ms", float64(res.IndexRebuild)/1e6, "PLR's deferred index build")
	if err := reloadAlone(rep, own, tr); err != nil {
		return err
	}
	return restartPieces(rep, own, tr)
}

// twin builds a populated engine-level copy of a catalog from its blueprint,
// for the probe that calls sched below the facade.
func twin(bp pacman.Blueprint) (*engine.Database, *proc.Registry, error) {
	db, reg := engine.NewDatabase(), proc.NewRegistry()
	for _, s := range bp.Tables {
		if _, err := db.AddTable(s); err != nil {
			return nil, nil, err
		}
	}
	for _, p := range bp.Procedures {
		if _, err := reg.Register(db, p); err != nil {
			return nil, nil, err
		}
	}
	if bp.Seed != nil {
		bp.Seed(func(table string, key uint64, vals pacman.Tuple) {
			r, _ := db.Table(table).GetOrCreateRow(key)
			r.Install(engine.MakeTS(0, 1), vals, false, true)
		})
	}
	return db, reg, nil
}

// replayAlone reloads a command log batch by batch and then times the
// replayer alone on the reloaded entries, against an engine-level twin of
// the catalog.
func replayAlone(rep *report, own *ownImage, tr *tracer) error {
	devs, err := cloneDevices(own.devs)
	if err != nil {
		return err
	}
	pepoch, err := wal.ReadPepoch(devs[0])
	if err != nil {
		return err
	}
	batches, err := wal.Discover(devs)
	if err != nil {
		return err
	}
	var loaded [][]*wal.Entry
	var entries int
	for _, bf := range batches {
		es, _, err := wal.ReloadBatch(bf, pepoch, 0, nproc)
		if err != nil {
			return err
		}
		loaded = append(loaded, es)
		entries += len(es)
	}
	db, reg, err := twin(own.mix.bp)
	if err != nil {
		return err
	}
	gdg := pacman.Adopt(db, reg, pacman.Options{}).Analyze()
	var replayErr error
	runtime.GC() // as before a timed restart
	d := tr.timed(tr.group(), "sched.replay_alone", "", func() {
		r := sched.New(gdg, reg, db, sched.Options{Threads: nproc, Mode: sched.Pipelined})
		r.Start()
		for _, es := range loaded {
			r.Submit(es)
		}
		replayErr = r.Finish()
	})
	if replayErr != nil {
		return fmt.Errorf("sched replay: %w", replayErr)
	}
	rep.set("sched.replay_alone_ms", float64(d)/1e6, fmt.Sprintf("sched.New/Start/Submit/Finish on %d pre-loaded entries in %d batches, %d threads", entries, len(loaded), nproc))
	return nil
}

// reloadAlone times wal.ReloadAll on a clone of the image.
func reloadAlone(rep *report, own *ownImage, tr *tracer) error {
	devs, err := cloneDevices(own.devs)
	if err != nil {
		return err
	}
	pepoch, err := wal.ReadPepoch(devs[0])
	if err != nil {
		return err
	}
	var st wal.ReloadStats
	var reloadErr error
	runtime.GC()
	d := tr.timed(tr.group(), "wal.reload_alone", "", func() {
		_, st, reloadErr = wal.ReloadAll(devs, pepoch, nproc)
	})
	if reloadErr != nil {
		return fmt.Errorf("wal.ReloadAll: %w", reloadErr)
	}
	rep.set("wal.reload_alone_ms", float64(d)/1e6, fmt.Sprintf("wal.ReloadAll, %d entries, %d bytes, %d threads", st.Entries, st.Bytes, nproc))
	rep.set("wal.reload_mb_per_s", float64(st.Bytes)/(1<<20)/d.Seconds(), "")
	return nil
}

// restartPieces re-measures, standalone and from outside, each step Restart
// took on the image, and books what is left to Restart's own glue: the
// epoch rebase, Start, and the first epoch. The steps are known by duration
// only, so their spans are laid end to end inside the restart's.
func restartPieces(rep *report, own *ownImage, tr *tracer) error {
	devs, err := cloneDevices(own.devs)
	if err != nil {
		return err
	}
	timed := func(fn func() error) (time.Duration, error) {
		runtime.GC()
		t0 := time.Now()
		err := fn()
		return time.Since(t0), err
	}
	manifest, err := timed(func() error {
		man, err := wal.ReadCatalogManifest(devs[0])
		if err != nil {
			return err
		}
		return man.Diff(man)
	})
	if err != nil {
		return err
	}
	var fresh *pacman.DB
	populate, err := timed(func() error {
		fresh = pacman.Open(options(own.kind))
		return fresh.ApplyBlueprint(own.mix.bp)
	})
	if err != nil {
		return err
	}
	pepoch, err := wal.ReadPepoch(devs[0])
	if err != nil {
		return err
	}
	repair, err := timed(func() error { _, err := wal.RepairTail(devs, pepoch); return err })
	if err != nil {
		return err
	}

	r := own.last
	res := r.res
	first := r.servable - r.restart
	id := tr.group()
	tr.add(id, "restart", "", r.t0, r.t0.Add(r.servable))
	cur := tr.laid(id, "wal.manifest", "restart", r.t0, manifest)
	cur = tr.laid(id, "engine.populate", "restart", cur, populate)
	children := manifest + populate + res.CheckpointTotal + res.LogTotal + repair + first
	if own.kind == pacman.CommandLogging {
		// Recover builds the dependency graph again for CLR-P.
		analyze, _ := timed(func() error { fresh.Analyze(); return nil })
		cur = tr.laid(id, "analysis.build_gdg", "restart", cur, analyze)
		children += analyze
		rep.set("analysis.build_gdg_ms", float64(analyze)/1e6, "DB.Analyze()")
	}
	cur = tr.laid(id, "checkpoint.restore", "restart", cur, res.CheckpointTotal)
	cur = tr.laid(id, "recovery.log_total", "restart", cur, res.LogTotal)
	tr.laid(id, "wal.repair_tail", "restart", cur, repair)
	tr.add(id, "pacman.first_durable", "restart", r.t0.Add(r.restart), r.t0.Add(r.servable))

	rep.set("wal.manifest_ms", float64(manifest)/1e6, "wal.ReadCatalogManifest + Diff")
	rep.set("engine.populate_ms", float64(populate)/1e6, "pacman.Open + ApplyBlueprint on a fresh instance")
	rep.set("wal.repair_tail_ms", float64(repair)/1e6, "wal.RepairTail on a clone")
	rep.set("wal.reload_wall_ms", float64(res.ReloadWall)/1e6, "RecoveryResult.ReloadWall")
	rep.set("wal.reload_cpu_ms", float64(res.LogReload)/1e6, "RecoveryResult.LogReload, summed over readers and decoders")
	rep.set("recovery.reload_stall_ms", float64(res.ReloadStall)/1e6, "replay blocked on the reload pipeline")
	rep.set("recovery.log_total_ms", float64(res.LogTotal)/1e6, fmt.Sprintf("%d entries", res.Entries))
	rep.set("pacman.first_durable_ms", float64(first)/1e6, "Restart returned → first durable ack")
	rep.set("pacman.restart_other_ms", float64(r.servable-children)/1e6,
		fmt.Sprintf("crash→servable %v minus the rows above (%v): the restart span's self time", r.servable, children))
	return nil
}
