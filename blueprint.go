package pacman

import (
	"errors"
	"fmt"
	"time"

	"pacman/internal/checkpoint"
	"pacman/internal/engine"
	"pacman/internal/recovery"
	"pacman/internal/wal"
)

// Seeder installs one initial row by table name; Blueprint seed functions
// receive one so the same declaration populates any instance.
type Seeder = func(table string, key uint64, vals Tuple)

// Blueprint is a declarative bundle of everything a database instance is
// made of: table schemas (in declaration order — order assigns the table
// IDs recorded in physical logs), stored procedures (in registration order —
// order assigns the procedure IDs recorded in command logs), and a
// deterministic seed for the initial population.
//
// Declaring the catalog once and passing the same value to Launch and
// Restart removes the re-declare-everything-in-the-same-order footgun of
// the imperative lifecycle: Launch persists a manifest of the blueprint to
// the devices, and Restart refuses to replay logs against a blueprint that
// has drifted from it.
type Blueprint struct {
	// Tables declares the schemas, in table-ID order.
	Tables []*Schema
	// Procedures declares the stored procedures, in procedure-ID order.
	Procedures []*Procedure
	// Seed deterministically installs the initial population. It must
	// produce the same rows in the same order on every invocation: recovery
	// replays it on a fresh instance when no checkpoint covers the
	// population, and its fingerprint is validated across restarts. Nil
	// means an empty initial database.
	Seed func(seed Seeder)
}

// ErrBlueprintMismatch is wrapped by Restart errors whose blueprint diverges
// from the catalog manifest persisted on the devices; the error message
// lists every divergence (reordered/missing/reshaped tables or procedures,
// changed procedure bodies, changed seed).
var ErrBlueprintMismatch = wal.ErrManifestMismatch

// ApplyBlueprint declares the blueprint's tables and procedures on a fresh,
// not-started instance and runs its seed.
func (d *DB) ApplyBlueprint(bp Blueprint) error { return d.applyBlueprint(bp, true) }

// applyBlueprint is ApplyBlueprint; with install false the seed only feeds
// the seed fingerprint and installs no row.
func (d *DB) applyBlueprint(bp Blueprint, install bool) error {
	if d.started {
		return errors.New("pacman: apply a blueprint to a fresh instance, not a started one")
	}
	for _, s := range bp.Tables {
		if _, err := d.DefineTable(s); err != nil {
			return err
		}
	}
	for _, p := range bp.Procedures {
		if err := d.Register(p); err != nil {
			return err
		}
	}
	if bp.Seed != nil {
		var seedErr error
		bp.Seed(func(table string, key uint64, vals Tuple) {
			t := d.db.Table(table)
			if t == nil {
				if seedErr == nil {
					seedErr = fmt.Errorf("pacman: blueprint seed references undeclared table %q", table)
				}
				return
			}
			if install {
				d.Seed(t, key, vals)
			} else {
				d.seedHash.Row(table, key, vals)
			}
		})
		if seedErr != nil {
			return seedErr
		}
	}
	return nil
}

// Launch opens a database instance from a blueprint and starts it: tables
// defined, procedures registered, population seeded, catalog manifest
// persisted, epoch clock and loggers running. The returned instance serves
// immediately (NewFrontend / NewSession). Launch requires fresh devices and
// fails loudly when handed used ones — relaunching on a crashed instance's
// devices would restart the epoch clock at zero and truncate batch files
// that still hold durable records; restarting on devices that already hold
// logs is Restart's job.
func Launch(bp Blueprint, opts Options) (*DB, error) {
	for _, dev := range opts.ExistingDevices {
		if _, err := wal.ReadCatalogManifest(dev); err == nil || !errors.Is(err, wal.ErrNoManifest) {
			return nil, fmt.Errorf("pacman: device %s already holds a catalog manifest; Restart recovers used devices, Launch requires fresh ones", dev.Name())
		}
		if logs := dev.List("log-"); len(logs) > 0 {
			return nil, fmt.Errorf("pacman: device %s already holds %d log batch files; Restart recovers used devices, Launch requires fresh ones", dev.Name(), len(logs))
		}
	}
	d := Open(opts)
	if err := d.ApplyBlueprint(bp); err != nil {
		return nil, err
	}
	if err := d.Start(); err != nil {
		return nil, err
	}
	return d, nil
}

// Restart brings a crashed (or cleanly closed) instance back into service
// from its devices: the normal path back to availability, not an offline
// experiment.
//
// It reads the catalog manifest the crashed instance persisted at Start and
// validates bp against it, failing loudly (ErrBlueprintMismatch) on
// reordered or missing procedures, schema drift, changed procedure bodies,
// or a changed seed — any of which would silently corrupt command-log
// replay. It then recovers with cfg.Scheme (AutoScheme derives the scheme
// from the logged kind), repairs the log tail (dropping torn frames and
// records beyond the durable cut) from the verdicts the recovery's reload
// pass reached — no log file is read twice — and returns a *started*
// instance:
//
//   - the epoch clock resumes past the recovery high-water mark, so every
//     new commit timestamp exceeds every recovered one;
//   - the WAL opens fresh batch files after the reloaded tail instead of
//     clobbering it, so a second crash+Restart recovers both pre- and
//     post-restart commits;
//   - Frontends and Sessions work immediately, and new commits become
//     durable on the same devices.
//
// Pass the same device slice the crashed instance used (first device
// first — it holds the pepoch marker and manifest). The recovered RecoveryResult
// reports the usual phase timings, plus what the tail repair did (Repair)
// and how long it took (RepairTime).
func Restart(devices []*Device, bp Blueprint, cfg RecoverConfig) (*DB, *RecoveryResult, error) {
	if len(devices) == 0 {
		return nil, nil, errors.New("pacman: Restart requires the crashed instance's devices")
	}
	man, err := wal.ReadCatalogManifest(devices[0])
	if err != nil {
		if errors.Is(err, wal.ErrNoManifest) {
			return nil, nil, fmt.Errorf("pacman: restart: %w (was the instance started via Launch/Start? raw Open+Recover handles unmanifested devices)", err)
		}
		return nil, nil, fmt.Errorf("pacman: restart: %w", err)
	}
	if man.Kind == wal.Off {
		return nil, nil, errors.New("pacman: restart: the crashed instance ran without logging; nothing to recover — Launch a fresh instance instead")
	}

	// The restarted instance adopts the manifest's durability configuration:
	// the logging kind (new log records must decode alongside reloaded
	// ones) and the batch geometry (resumed epochs must map to fresh batch
	// files, not collide with reloaded ones).
	opts := cfg.Serve
	opts.Logging = man.Kind
	opts.BatchEpochs = man.BatchEpochs
	opts.ExistingDevices = devices
	if opts.EpochInterval == 0 && man.EpochNanos > 0 {
		// Keep the crashed instance's group-commit cadence (and with it its
		// durable-commit latency) unless the caller overrides it.
		opts.EpochInterval = time.Duration(man.EpochNanos)
	}
	// Recovery restores the newest checkpoint when there is one, and a
	// checkpoint holds the whole table space. Seeding underneath it would
	// bring back every seeded row deleted before the checkpoint, so the
	// seed then only feeds the fingerprint the manifest check compares.
	ckpt, err := checkpoint.FindLatest(devices)
	if err != nil {
		return nil, nil, fmt.Errorf("pacman: restart: %w", err)
	}
	d := Open(opts)
	if err := d.applyBlueprint(bp, ckpt == nil); err != nil {
		return nil, nil, err
	}
	if err := man.Diff(d.catalogManifest()); err != nil {
		return nil, nil, fmt.Errorf("pacman: restart: %w", err)
	}

	scheme := cfg.Scheme
	if scheme == AutoScheme {
		scheme = recovery.SchemeFor(man.Kind)
	}
	if scheme.LogKind() != man.Kind {
		return nil, nil, fmt.Errorf("pacman: restart: scheme %v replays %v logs, but the devices were logged with %v",
			scheme, scheme.LogKind(), man.Kind)
	}

	res, err := d.Recover(devices, scheme, cfg)
	if err != nil {
		return nil, nil, err
	}

	// Repair the tail before logging again: drop torn frames and ghost
	// records beyond the durable cut, which a later recovery's pepoch
	// filter would otherwise wrongly admit once the persistent epoch moves
	// past them. The reload pass already decided what to repair; applying
	// it reads no batch file, and releasing it frees the bytes it kept.
	t0 := time.Now()
	res.Repair, err = res.Tail.Apply(devices)
	res.RepairTime = time.Since(t0)
	res.Tail = wal.TailRepair{}
	if err != nil {
		return nil, nil, err
	}

	// Resume the epoch clock past the recovered high-water mark, rounded up
	// to a batch boundary so the first post-restart flush opens a fresh
	// batch file strictly after the reloaded tail. resume == 1 means
	// nothing was durable (commits start at epoch 1 and pepoch was 0), and
	// the tail repair above has already emptied any unacknowledged frames
	// from batch 0, so starting it over loses nothing.
	resume := res.ResumeEpoch
	if resume > 1 {
		be := man.BatchEpochs
		if be == 0 {
			be = wal.DefaultBatchEpochs
		}
		resume = engine.EpochCeil(resume, be)
	}
	d.mgr.Rebase(resume)
	d.resumePepoch = resume - 1
	d.ckptSeed = res.CheckpointID

	if err := d.Start(); err != nil {
		return nil, nil, err
	}
	return d, res, nil
}
