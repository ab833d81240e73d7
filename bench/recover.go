package main

import (
	"fmt"
	"time"

	"pacman"
)

const timedRestarts = 5

// ownImage is the crash image a workload restarts, as it restarts it, with
// the last of those restarts: what a traced run takes apart (ledger.go).
type ownImage struct {
	kind pacman.LogKind
	mix  *mix
	devs []*pacman.Device
	cfg  pacman.RecoverConfig
	last *restarted
	// serial is a serial-CLR restart of the image where the workload makes
	// one for its own checks; otherwise the traced run makes it.
	serial *restarted
	// The checkpoint in the image, if it has one.
	ckptDur time.Duration
	ckptLen int64
}

// restartConfig is how a workload restarts its image: with the defaults,
// and in a traced run of a command-log image with the Figure 20 breakdown
// switched on (only CLR-P fills it).
func restartConfig(kind pacman.LogKind, tr *tracer) pacman.RecoverConfig {
	var cfg pacman.RecoverConfig
	if tr != nil && kind == pacman.CommandLogging {
		cfg.Breakdown = pacman.NewBreakdown()
	}
	return cfg
}

// image is a crash image with what is known about the history it holds.
type image struct {
	mix *mix
	// mk and phases are how the history was generated: a mix of mk, drawn
	// phases[i].n times from a generator seeded phases[i].seed.
	mk      func() *mix
	phases  []historyPhase
	devs    []*pacman.Device
	digest  uint64
	rows    int64
	logged  int64 // acknowledged transactions that always log
	maybe   int64 // acknowledged transactions that log only when they write
	acked   int64
	bytes   int64 // device bytes written by the history
	ckptDur time.Duration
	ckptLen int64
}

type historyPhase struct {
	seed int64
	n    int
}

// servingMix returns a mix whose generator stands where the history's
// stood when the instance crashed. TPC-C's generator numbers the orders of
// each district and tracks which are delivered; a restart takes the
// database back to the image, so the generator that serves from it is
// taken back too, by drawing the history again from a fresh one.
func (img *image) servingMix() *mix {
	m := img.mk()
	for _, ph := range img.phases {
		rng := newRand(ph.seed, 0)
		for i := 0; i < ph.n; i++ {
			m.next(rng)
		}
	}
	return m
}

// buildImage logs exactly txns transactions of the mix under kind, waits
// for every future, digests all tables and crashes. With ckptAfter > 0 one
// checkpoint is taken once that share of the transactions is durable.
//
// The history comes from a single generator, so that requests are submitted
// in the order they were generated: TPC-C's generator numbers orders per
// district as it goes, and a Delivery must not overtake the NewOrder whose
// order it delivers (gen.go, tpccHistory).
func buildImage(rep *report, mk func() *mix, kind pacman.LogKind, txns int, ckptAfter float64, seed int64) (*image, error) {
	m := mk()
	db, err := launch(m, kind)
	if err != nil {
		return nil, err
	}
	fe, err := db.NewFrontend(pacman.FrontendConfig{Workers: nproc})
	if err != nil {
		return nil, err
	}
	img := &image{mix: m, mk: mk}
	first := int(float64(txns) * ckptAfter)
	for i, n := range []int{first, txns - first} {
		if n == 0 {
			continue
		}
		img.phases = append(img.phases, historyPhase{seed + int64(i), n})
		r := runPhase(&phase{name: "log", mix: m, submitters: embedded(fe)[:1], window: embeddedWindow,
			count: int64(n), seed: seed + int64(i)})
		rep.ops(r.submitted, r.failed)
		for _, e := range r.errs {
			rep.info("log phase error: %s", e)
		}
		img.logged += r.logged
		img.maybe += r.maybeLog
		img.acked += r.acked
		if i == 0 && ckptAfter > 0 {
			t0 := time.Now()
			if err := db.Checkpoint(); err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
			img.ckptDur = time.Since(t0)
			for _, d := range db.Devices() {
				for _, name := range d.List("ckpt-") {
					if sz, err := d.Size(name); err == nil {
						img.ckptLen += sz
					}
				}
			}
		}
	}
	fe.Close()
	if img.digest, img.rows, err = digestNow(db, m.bp); err != nil {
		return nil, err
	}
	img.bytes = deviceBytes(db.Devices())
	db.Crash()
	img.devs = db.Devices()
	return img, nil
}

// restartImage restarts a fresh clone of the image and checks the
// recovered state against the history.
func restartImage(rep *report, img *image, cfg pacman.RecoverConfig) (*restarted, time.Duration, error) {
	r, cloning, err := restartClone(rep, img.devs, img.mix, cfg)
	if err != nil {
		return nil, cloning, err
	}
	entries := int64(r.res.Entries + r.res.Filtered)
	ok := r.digest == img.digest && r.rows == img.rows && entries >= img.logged && entries <= img.logged+img.maybe
	rep.check(ok, "restart (%v): digest %016x over %d rows with %d+%d entries; the crashed instance had %016x over %d rows and %d to %d logged",
		cfg.Scheme, r.digest, r.rows, r.res.Entries, r.res.Filtered, img.digest, img.rows, img.logged, img.logged+img.maybe)
	if !ok {
		rep.ops(0, 1)
	}
	return r, cloning, nil
}

// runRecover measures crash→servable on a fixed history: build the image
// once, restart fresh clones of it, and serve a round from each recovered
// instance.
func runRecover(rep *report, w *scenario, rc *runCfg, tr *tracer) error {
	t0 := time.Now()
	txns := rc.scaled(w.logTxns)
	img, err := buildImage(rep, w.mix, w.kind, txns, w.ckptAfter, rc.seed)
	if err != nil {
		return err
	}
	setup := time.Since(t0)
	rep.info("image of %s: %d transactions submitted, %d acknowledged, %d to %d log entries, %d device bytes, %d rows",
		img.mix.name, txns, img.acked, img.logged, img.logged+img.maybe, img.bytes, img.rows)

	// The first restart warms the process up and is discarded.
	cfg := restartConfig(w.kind, tr)
	r, cloning, err := restartImage(rep, img, cfg)
	setup += cloning
	if err != nil {
		return err
	}
	r.db.Close()

	var servable []float64
	var last *restarted
	ld := rc.load(embeddedWindow, w.rate, rc.seed+7, 0.6, timedRestarts)
	sv, err := serveRounds(rep, ld, tr, "frontend", func(int) (*serving, error) {
		t0 := time.Now()
		m := img.servingMix()
		setup += time.Since(t0)
		r, cloning, err := restartImage(rep, img, cfg)
		setup += cloning
		if err != nil {
			return nil, err
		}
		servable = append(servable, r.servable.Seconds())
		last = r
		// What a user gets after the restart: serve from the recovered
		// instance.
		return serveEmbedded(r.db, m)
	})
	if err != nil {
		return err
	}

	own := &ownImage{kind: w.kind, mix: img.mix, devs: img.devs, cfg: cfg, last: last, ckptDur: img.ckptDur, ckptLen: img.ckptLen}
	if w.kind == pacman.CommandLogging {
		// The serial scheme is the executable specification of replay: the
		// dependency-graph schedule must reach the same state and resume
		// at the same epoch.
		r, cloning, err := restartImage(rep, img, pacman.RecoverConfig{Scheme: pacman.CLR})
		setup += cloning
		if err != nil {
			return err
		}
		rep.check(r.res.ResumeEpoch == last.res.ResumeEpoch, "serial CLR resumes at epoch %d, CLR-P at %d", r.res.ResumeEpoch, last.res.ResumeEpoch)
		rep.info("serial CLR on the same image: log recovery %v against %v, crash→servable %v", r.res.LogTotal, last.res.LogTotal, r.servable)
		r.db.Close()
		own.serial = r
	}

	rep.set("restart_s", median(servable), fmt.Sprintf("Restart on a clone → first durable ack; median of %d after 1 discarded %s; %d entries",
		ld.rounds, fmtList(servable), last.res.Entries))
	reportServe(rep, ld, sv)
	// For a recovery workload the per-transaction costs are those of the
	// history and of replaying it, not of the serving after it.
	rep.set("log_bytes_per_txn", float64(img.bytes)/float64(img.acked), fmt.Sprintf("%d device bytes / %d committed in the history", img.bytes, img.acked))
	rep.set("allocs_per_txn", float64(last.mallocs)/float64(last.res.Entries),
		fmt.Sprintf("%d process-wide mallocs over the last restart / %d replayed entries", last.mallocs, last.res.Entries))
	rep.set("setup_s", setup.Seconds(), "populate + log generation + digest + crash + image cloning + the serving generators")
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
