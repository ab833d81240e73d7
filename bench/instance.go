package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"pacman"
	"pacman/internal/simdisk"
	"pacman/internal/tuple"
)

// nproc sizes every pool the benchmark asks for: frontend workers and
// recovery threads. The load itself always comes from two generators.
var nproc = runtime.GOMAXPROCS(0)

const generators = 2

// patientRetries replaces the default OCC retry cap of 10000. At the
// default, about one Smallbank transaction in two million gives up on two
// cores: when the goroutine holding a hot row's latch is descheduled, the
// retry loop, which does not back off, burns its attempts within
// milliseconds. The benchmark's workloads must not fail operations, so the
// cap is lifted and such a transaction costs time instead (README.md,
// findings). Every other option is the shipped default.
const patientRetries = 1 << 30

// options are what every instance of the benchmark runs with: the shipped
// defaults (10 ms epochs, sync on, multi-version, two devices) on the
// modeled SSD.
func options(kind pacman.LogKind) pacman.Options {
	return pacman.Options{Logging: kind, DeviceConfig: simdisk.DefaultSSD(), MaxRetries: patientRetries}
}

// launch starts a fresh instance of the mix's catalog.
func launch(m *mix, kind pacman.LogKind) (*pacman.DB, error) {
	return pacman.Launch(m.bp, options(kind))
}

// embedded returns per-generator submitters over one shared Frontend.
func embedded(fe *pacman.Frontend) []func(o *op) future {
	subs := make([]func(o *op) future, generators)
	for i := range subs {
		subs[i] = func(o *op) future { return fe.Submit(o.name, o.args) }
	}
	return subs
}

// cloneDevices copies a crash image file by file onto fresh devices of the
// same model, so that every restart reads an untouched image.
func cloneDevices(src []*pacman.Device) ([]*pacman.Device, error) {
	dst := make([]*pacman.Device, len(src))
	errs := make([]error, len(src))
	var wg sync.WaitGroup
	for i, s := range src {
		dst[i] = simdisk.New(s.Name(), simdisk.DefaultSSD())
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range s.List("") {
				r, err := s.Open(name)
				if err != nil {
					errs[i] = err
					return
				}
				data, err := r.ReadAll()
				if err != nil {
					errs[i] = err
					return
				}
				w := dst[i].Create(name)
				if _, err := w.Write(data); err != nil {
					errs[i] = err
					return
				}
				if err := w.Sync(); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return dst, errors.Join(errs...)
}

// deviceBytes sums what has been written to the devices so far.
func deviceBytes(devs []*pacman.Device) int64 {
	var n int64
	for _, d := range devs {
		n += d.Stats().BytesWritten
	}
	return n
}

// digest fingerprints every table of the catalog as seen through a pinned
// snapshot view, in key order.
func digest(db *pacman.DB, bp pacman.Blueprint, v *pacman.SnapshotView) (sum uint64, rows int64) {
	h := fnv.New64a()
	var buf []byte
	for _, s := range bp.Tables {
		t := db.Table(s.Table())
		v.Scan(t, 0, ^uint64(0), func(key uint64, row pacman.Tuple) bool {
			buf = buf[:0]
			for i := 0; i < 8; i++ {
				buf = append(buf, byte(key>>(8*i)))
			}
			buf = tuple.AppendTuple(buf, row)
			h.Write(buf)
			rows++
			return true
		})
		h.Write([]byte{0xff})
	}
	return h.Sum64(), rows
}

// digestNow digests the newest released cut of a quiesced instance.
func digestNow(db *pacman.DB, bp pacman.Blueprint) (uint64, int64, error) {
	v, err := db.SnapshotView(0)
	if err != nil {
		return 0, 0, err
	}
	defer v.Close()
	sum, rows := digest(db, bp, v)
	return sum, rows, nil
}

// restarted is one timed crash→servable cycle.
type restarted struct {
	db  *pacman.DB
	res *pacman.RecoveryResult
	// restart is Restart's own wall time, servable the time until the first
	// durable ack on a new Frontend of the returned instance.
	restart  time.Duration
	servable time.Duration
	digest   uint64
	rows     int64
	mallocs  uint64
	t0       time.Time
}

// restart recovers a crash image and serves one durable transaction from
// the recovered instance. The view is pinned before that transaction and
// digested after the clock has stopped, so the digest is the recovered
// state alone.
func restart(devs []*pacman.Device, m *mix, cfg pacman.RecoverConfig) (*restarted, error) {
	cfg.Threads = nproc
	cfg.Serve.MaxRetries = patientRetries
	m0 := mallocs()
	t0 := time.Now()
	db, res, err := pacman.Restart(devs, m.bp, cfg)
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	out := &restarted{db: db, res: res, t0: t0, restart: time.Since(t0)}
	v, err := db.SnapshotView(0)
	if err != nil {
		db.Close()
		return nil, err
	}
	defer v.Close()
	fe, err := db.NewFrontend(pacman.FrontendConfig{Workers: nproc})
	if err != nil {
		db.Close()
		return nil, err
	}
	defer fe.Close()
	if _, err := fe.SubmitWithin(m.probe.name, m.probe.args, waitLimit).Wait(); err != nil {
		db.Close()
		return nil, fmt.Errorf("first transaction after restart: %w", err)
	}
	out.servable = time.Since(t0)
	out.mallocs = mallocs() - m0
	out.digest, out.rows = digest(db, m.bp, v)
	return out, nil
}

// restartClone restarts a fresh clone of a crash image, so that every
// restart reads an untouched image, and books the restart as one operation.
// Cloning and the collection after it are not part of the timed restart;
// their cost is returned to be booked as set-up.
func restartClone(rep *report, image []*pacman.Device, m *mix, cfg pacman.RecoverConfig) (*restarted, time.Duration, error) {
	t0 := time.Now()
	devs, err := cloneDevices(image)
	if err != nil {
		return nil, 0, err
	}
	runtime.GC()
	cloning := time.Since(t0)
	r, err := restart(devs, m, cfg)
	if err != nil {
		rep.ops(1, 1)
		return nil, cloning, err
	}
	rep.ops(1, 0)
	return r, cloning, nil
}
