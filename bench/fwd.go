package main

import (
	"errors"
	"fmt"
	"time"

	"pacman"
)

// A verify pass restarts its quiesced image until the restarts have taken
// verifyRestartShare of the run length together, and at least twice: the
// image is small, its restart is tens of milliseconds against a 10 ms epoch
// tick, and one restart is a noisy sample.
const verifyRestartShare = 0.05

// moreRestarts reports whether a verify pass should restart its image again.
func (rc *runCfg) moreRestarts(servable []float64) bool {
	var spent float64
	for _, s := range servable {
		spent += s
	}
	return len(servable) < rc.times(2) || spent < rc.budget(verifyRestartShare).Seconds()
}

// verifyRounds runs a workload's verify pass setupRounds times. It returns
// how long each pass took, which is the workload's set-up time, every
// crash→servable time the passes measured on their quiesced images, and
// the last pass's image.
func verifyRounds(rc *runCfg, pass func(round int) ([]float64, *ownImage, error)) (setups, servable []float64, own *ownImage, err error) {
	for round := 0; round < rc.times(setupRounds); round++ {
		t0 := time.Now()
		var s []float64
		if s, own, err = pass(round); err != nil {
			return nil, nil, nil, err
		}
		servable = append(servable, s...)
		setups = append(setups, time.Since(t0).Seconds())
	}
	return setups, servable, own, nil
}

// crashMidFlight submits n requests back to back and crashes the instance
// with most of them executed but not yet durable. It returns how many
// logging transactions were acknowledged before the crash took effect.
func crashMidFlight(db *pacman.DB, m *mix, n int, seed int64) (ackedLogged int, err error) {
	fe, err := db.NewFrontend(pacman.FrontendConfig{Workers: nproc})
	if err != nil {
		return 0, err
	}
	defer fe.Close()
	rng := newRand(seed, 0)
	ops := make([]op, n)
	futs := make([]future, n)
	for i := range futs {
		ops[i] = m.next(rng)
		futs[i] = fe.Submit(ops[i].name, ops[i].args)
	}
	db.Crash()
	deadline := time.NewTimer(waitLimit)
	defer deadline.Stop()
	for i, f := range futs {
		select {
		case <-f.Done():
		case <-deadline.C:
			return 0, fmt.Errorf("future %d of %d unresolved %v after Crash", i, n, waitLimit)
		}
		switch _, err := f.Wait(); {
		case err == nil:
			if ops[i].logs == logsAlways {
				ackedLogged++
			}
		case errors.Is(err, pacman.ErrCrashed), errors.Is(err, pacman.ErrClosed):
		case ops[i].mayAbort && isAbort(err):
		default:
			return 0, fmt.Errorf("future %d: %w", i, err)
		}
	}
	return ackedLogged, nil
}

// verifyEmbedded is the correctness gate of the forward workloads. It logs
// a fixed number of transactions, quiesces, digests every table, crashes,
// restarts from a clone of the crash image and requires the same digest
// and exactly the acknowledged logging transactions replayed; then it
// crashes the restarted instance mid-flight and requires that a second
// restart replays at least everything acknowledged. It returns the
// crash→servable times, in seconds, of the restarts of the quiesced image,
// restarted as cfg says, and that image with the last of them.
func verifyEmbedded(rep *report, rc *runCfg, m *mix, kind pacman.LogKind, txns int, seed int64, cfg pacman.RecoverConfig) (servable []float64, own *ownImage, err error) {
	db, err := launch(m, kind)
	if err != nil {
		return nil, nil, err
	}
	fe, err := db.NewFrontend(pacman.FrontendConfig{Workers: nproc})
	if err != nil {
		return nil, nil, err
	}
	logged := runPhase(&phase{name: "verify", mix: m, submitters: embedded(fe), window: embeddedWindow,
		count: int64(txns), seed: seed})
	fe.Close()
	rep.ops(logged.submitted, logged.failed)
	want, rows, err := digestNow(db, m.bp)
	if err != nil {
		return nil, nil, err
	}
	db.Crash()
	// From here on the crashed instance is its devices: nothing below may
	// keep the instance itself reachable, or its tables count in the
	// process's peak memory to the end of the pass.
	image := db.Devices()

	var r1 *restarted
	for rc.moreRestarts(servable) {
		if r1 != nil {
			r1.db.Close()
		}
		if r1, _, err = restartClone(rep, image, m, cfg); err != nil {
			return nil, nil, err
		}
		servable = append(servable, r1.servable.Seconds())
		rep.check(r1.digest == want && r1.rows == rows,
			"verify: digest after restart %016x over %d rows, before the crash %016x over %d rows", r1.digest, r1.rows, want, rows)
	}
	replayed := int64(r1.res.Entries + r1.res.Filtered)
	rep.check(replayed >= logged.logged && replayed <= logged.logged+logged.maybeLog,
		"verify: restart replayed %d entries; %d acknowledged transactions always log and %d more may", replayed, logged.logged, logged.maybeLog)

	// Second crash, not quiesced. The first restart's probe transaction is
	// in the log too.
	acked, err := crashMidFlight(r1.db, m, txns/4, seed+1)
	if err != nil {
		return nil, nil, err
	}
	r2, _, err := restartClone(rep, r1.db.Devices(), m, pacman.RecoverConfig{})
	if err != nil {
		return nil, nil, err
	}
	r2.db.Close()
	floor := replayed + 1 + int64(acked)
	rep.check(int64(r2.res.Entries+r2.res.Filtered) >= floor,
		"verify: restart after a mid-flight crash replayed %d entries, at least %d were acknowledged", r2.res.Entries+r2.res.Filtered, floor)
	r1.db = nil // likewise
	return servable, &ownImage{kind: kind, mix: m, devs: image, cfg: cfg, last: r1}, nil
}

// serveEmbedded puts a Frontend over a running instance for one round of
// serving with m; the round's end closes both.
func serveEmbedded(db *pacman.DB, m *mix) (*serving, error) {
	fe, err := db.NewFrontend(pacman.FrontendConfig{Workers: nproc})
	if err != nil {
		db.Close()
		return nil, err
	}
	return &serving{mix: m, submitters: embedded(fe), devices: db.Devices(), dbs: []*pacman.DB{db}, fe: fe,
		done: func(_, _ *phaseResult) error {
			fe.Close()
			db.Close()
			return nil
		}}, nil
}

// runFwd measures an embedded forward workload: a Frontend over one
// instance, driven at peak and then at a fixed rate.
func runFwd(rep *report, w *scenario, rc *runCfg, tr *tracer) error {
	// Set-up is done setupRounds times and its median reported, so that one
	// slow launch does not read as a regression.
	cfg := restartConfig(w.kind, tr)
	setups, servable, own, err := verifyRounds(rc, func(round int) ([]float64, *ownImage, error) {
		return verifyEmbedded(rep, rc, w.mix(), w.kind, rc.scaled(w.verifyTxns), rc.seed+int64(round), cfg)
	})
	if err != nil {
		return err
	}
	ld := rc.load(embeddedWindow, w.rate, rc.seed, 1, rounds)
	sv, err := serveRounds(rep, ld, tr, "frontend", func(int) (*serving, error) {
		m := w.mix()
		db, err := launch(m, w.kind)
		if err != nil {
			return nil, err
		}
		return serveEmbedded(db, m)
	})
	if err != nil {
		return err
	}
	reportServe(rep, ld, sv)
	reportPerTxn(rep, sv)
	rep.set("restart_s", median(servable), fmt.Sprintf("crash→first durable ack on the %d-transaction verify image; median of %s", rc.scaled(w.verifyTxns), fmtList(servable)))
	rep.set("setup_s", median(setups), fmt.Sprintf("verify pass: launch, log, crash, restart and check twice; median of %s", fmtList(setups)))
	if tr == nil {
		return nil
	}
	ledgerEmbedded(rep, ld, sv)
	bypassed(rep, "no request of this workload crosses the wire", wireLayers...)
	if err := ledgerExec(rep, w.mix(), rc, tr); err != nil {
		return err
	}
	return ledgerRestart(rep, own, tr)
}
