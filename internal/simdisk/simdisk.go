// Package simdisk provides a simulated storage device: an in-memory file
// store with a configurable sequential-bandwidth and fsync-latency model.
//
// The PACMAN paper's logging experiments (Figure 11, Tables 2 and 3) are
// driven by SSD characteristics — sequential write bandwidth saturating
// under tuple-level logging, and fsync latency dominating commit latency.
// Real disks make those experiments irreproducible across machines, so this
// package substitutes a deterministic model:
//
//   - Each Device serializes its operations through a single queue, like a
//     saturated disk: a write of n bytes occupies the device for
//     n/bandwidth seconds, and callers sleep until their operation's
//     position in the queue completes. Two loggers sharing one device
//     therefore each see half the bandwidth — the effect behind the
//     paper's one-SSD vs two-SSD comparison.
//   - Sync adds the configured fsync latency and marks the current file
//     length durable.
//   - Crash discards all non-durable bytes (everything written after the
//     last Sync), so recovery code sees honest torn tails.
//
// Bandwidth 0 disables the bandwidth model (infinite speed); latency 0
// disables the fsync model. Counters report bytes moved and syncs issued
// for the Table 2 bandwidth accounting.
package simdisk

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config describes a device's performance model.
type Config struct {
	// ReadBandwidth and WriteBandwidth are bytes per second of sequential
	// transfer; 0 means unlimited.
	ReadBandwidth  int64
	WriteBandwidth int64
	// SyncLatency is the time one Sync occupies the device; 0 means free.
	SyncLatency time.Duration
}

// DefaultSSD mirrors the paper's testbed device: 550 MB/s sequential read,
// 520 MB/s sequential write (Section 6), with a typical SATA-SSD fsync cost.
func DefaultSSD() Config {
	return Config{
		ReadBandwidth:  550 << 20,
		WriteBandwidth: 520 << 20,
		SyncLatency:    300 * time.Microsecond,
	}
}

// Unlimited disables all performance modeling; useful for algorithm-only
// experiments and most tests.
func Unlimited() Config { return Config{} }

// Device is a simulated disk holding named append-only files.
type Device struct {
	name string
	cfg  Config

	qmu  sync.Mutex // serializes the device's service queue
	free time.Time  // when the device next becomes idle

	mu    sync.Mutex // guards files
	files map[string]*file

	// fmu guards the armed fault plane (see fault.go). A nil plan means no
	// faults are armed and the checks reduce to one mutex acquisition.
	fmu        sync.Mutex
	plan       *FaultPlan
	faults     *DeviceFaults
	poweredOff bool

	bytesWritten atomic.Int64
	bytesRead    atomic.Int64
	syncs        atomic.Int64
	busy         atomic.Int64 // nanoseconds of modeled service time
	readBusy     atomic.Int64 // read share of busy, for reload accounting
}

type file struct {
	mu      sync.Mutex
	data    []byte
	durable int // bytes guaranteed to survive Crash
}

// New creates an empty device with the given performance model.
func New(name string, cfg Config) *Device {
	return &Device{name: name, cfg: cfg, files: make(map[string]*file)}
}

// Name returns the device's label.
func (d *Device) Name() string { return d.name }

// Stats reports cumulative traffic counters.
type Stats struct {
	BytesWritten int64
	BytesRead    int64
	Syncs        int64
	// Busy is the total modeled service time; Busy/elapsed approximates
	// utilization.
	Busy time.Duration
	// ReadBusy is the read share of Busy. Recovery's reload pipeline uses
	// it to report per-device read bandwidth actually achieved; writes and
	// syncs account for the remainder.
	ReadBusy time.Duration
}

// WriteBusy returns the write+sync share of the modeled service time.
func (s Stats) WriteBusy() time.Duration { return s.Busy - s.ReadBusy }

// Stats returns the device's cumulative traffic counters.
func (d *Device) Stats() Stats {
	return Stats{
		BytesWritten: d.bytesWritten.Load(),
		BytesRead:    d.bytesRead.Load(),
		Syncs:        d.syncs.Load(),
		Busy:         time.Duration(d.busy.Load()),
		ReadBusy:     time.Duration(d.readBusy.Load()),
	}
}

// occupy reserves dur of device time and sleeps until the reservation
// completes, modeling a single-queue device.
func (d *Device) occupy(dur time.Duration) {
	if dur <= 0 {
		return
	}
	d.busy.Add(int64(dur))
	d.qmu.Lock()
	now := time.Now()
	if d.free.Before(now) {
		d.free = now
	}
	d.free = d.free.Add(dur)
	wait := d.free.Sub(now)
	d.qmu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
}

// occupyRead is occupy with the duration also charged to the read account.
// Concurrent readers (the reload pipeline opens one per batch file) queue
// through the same device reservation, so a device's read throughput never
// exceeds its configured bandwidth no matter the reader fan-out.
func (d *Device) occupyRead(dur time.Duration) {
	d.readBusy.Add(int64(dur))
	d.occupy(dur)
}

func transferTime(n int64, bw int64) time.Duration {
	if bw <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / float64(bw) * float64(time.Second))
}

func (d *Device) getFile(name string) (*file, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	return f, ok
}

// Create creates (or truncates) a named file and returns a writer for it.
// On a power-failed device the truncation does not happen: the writer is
// detached (its bytes go nowhere durable and Sync fails), so a crashed
// incarnation racing its own death cannot destroy persisted files.
func (d *Device) Create(name string) *Writer {
	if _, _, off := d.faultState(); off {
		return &Writer{dev: d, f: &file{}}
	}
	d.mu.Lock()
	f := &file{}
	d.files[name] = f
	d.mu.Unlock()
	return &Writer{dev: d, f: f}
}

// Append opens the named file for appending, creating it when missing. The
// existing durable watermark is preserved — only newly appended bytes are
// at risk until the next Sync. Like Create, it returns a detached writer on
// a power-failed device.
func (d *Device) Append(name string) *Writer {
	if _, _, off := d.faultState(); off {
		return &Writer{dev: d, f: &file{}}
	}
	d.mu.Lock()
	f, ok := d.files[name]
	if !ok {
		f = &file{}
		d.files[name] = f
	}
	d.mu.Unlock()
	return &Writer{dev: d, f: f}
}

// SidecarPrefix names the sidecar Replace stages a file in. It lies outside
// every file namespace a reader lists ("log-", "ckpt-"), so a sidecar a
// crash left behind is never mistaken for a published file; tail repair
// removes such leftovers.
const SidecarPrefix = "replace~"

// Replace atomically publishes data as the whole of the named file: it
// writes data to a sidecar, syncs it, and renames it over name. A crash at
// any point leaves either the previous file or the new one, never a mix.
func (d *Device) Replace(name string, data []byte) error {
	side := SidecarPrefix + name
	w := d.Create(side)
	if _, err := w.Write(data); err != nil {
		return err
	}
	if err := w.Sync(); err != nil {
		return err
	}
	return d.Rename(side, name)
}

// Rename atomically replaces newname with oldname's file — the model is a
// journaled-metadata filesystem where rename is the atomic, durable publish
// step (Replace syncs a sidecar, then renames it over the original). Only
// the name mapping is durable: callers must Sync the sidecar's contents
// before renaming, exactly as on a real FS, or the published file still
// loses its unsynced bytes at the next crash.
func (d *Device) Rename(oldname, newname string) error {
	if _, _, off := d.faultState(); off {
		return ErrPowerFailed
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[oldname]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, oldname)
	}
	delete(d.files, oldname)
	d.files[newname] = f
	return nil
}

// ErrNotExist is returned when opening or removing a missing file.
var ErrNotExist = errors.New("simdisk: file does not exist")

// Open returns a reader over the named file's durable prefix plus any bytes
// written since (i.e., the current contents — crash truncation happens at
// Crash time, not read time).
func (d *Device) Open(name string) (*Reader, error) {
	f, ok := d.getFile(name)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return &Reader{dev: d, f: f}, nil
}

// Remove deletes a file. Like all mutations it fails on a power-failed
// device, so a dying incarnation cannot unlink persisted files.
func (d *Device) Remove(name string) error {
	if _, _, off := d.faultState(); off {
		return ErrPowerFailed
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.files[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	delete(d.files, name)
	return nil
}

// List returns the names of files with the given prefix, sorted.
func (d *Device) List(prefix string) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for n := range d.files {
		if strings.HasPrefix(n, prefix) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Size returns the current length of the named file.
func (d *Device) Size(name string) (int64, error) {
	f, ok := d.getFile(name)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.data)), nil
}

// Clone returns an independent copy of the device: the same name and
// performance model, and every file with its contents and durable
// watermark, but no armed faults and zeroed counters. It lets a check that
// mutates a crash image run on a copy and leave the original untouched.
func (d *Device) Clone() *Device {
	c := New(d.name, d.cfg)
	d.mu.Lock()
	defer d.mu.Unlock()
	for name, f := range d.files {
		f.mu.Lock()
		c.files[name] = &file{data: append([]byte(nil), f.data...), durable: f.durable}
		f.mu.Unlock()
	}
	return c
}

// Crash simulates a power failure: every file is truncated to its durable
// (synced) length.
func (d *Device) Crash() {
	d.FailHungSyncs()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, f := range d.files {
		f.mu.Lock()
		if f.durable < len(f.data) {
			f.data = f.data[:f.durable]
		}
		f.mu.Unlock()
	}
}

// FailHungSyncs releases any sync hung on a gray latency fault
// (DeviceFaults.HangSyncAfter) with ErrPowerFailed, durability frozen,
// without powering the device off. Crash calls it implicitly; DB.Crash
// calls it FIRST — before joining the logging pipeline — because a flush
// goroutine blocked inside the hung sync would otherwise deadlock the
// crash that is trying to stop it.
func (d *Device) FailHungSyncs() {
	d.fmu.Lock()
	f := d.faults
	d.fmu.Unlock()
	if f != nil {
		f.releaseHang(ErrPowerFailed)
	}
}

// Writer appends to a file with the device's write-bandwidth model applied.
type Writer struct {
	dev *Device
	f   *file
}

// Write appends p to the file. The caller is charged the modeled transfer
// time. Without an armed fault plan it never fails (the device is
// in-memory); with one, a write to a power-failed device is dropped with
// ErrPowerFailed, and the tripping write of a byte-watermark fault appends
// only its prefix up to the watermark before the group fails.
func (w *Writer) Write(p []byte) (int, error) {
	allow, tripAfter, err := w.dev.faultBeforeWrite(len(p))
	if err != nil {
		return 0, err
	}
	if d := w.dev.grayWriteDelay(); d > 0 {
		time.Sleep(d) // sticky-slow device: real wall time, not modeled time
	}
	w.f.mu.Lock()
	w.f.data = append(w.f.data, p[:allow]...)
	w.f.mu.Unlock()
	w.dev.bytesWritten.Add(int64(allow))
	w.dev.occupy(transferTime(int64(allow), w.dev.cfg.WriteBandwidth))
	if tripAfter {
		w.dev.fmu.Lock()
		plan := w.dev.plan
		w.dev.fmu.Unlock()
		if plan != nil {
			plan.trip(w.dev.name, "write")
		}
		if allow < len(p) {
			return allow, ErrPowerFailed
		}
	}
	return len(p), nil
}

// Sync makes all bytes written so far durable, charging the fsync latency.
// On a power-failed device it fails with ErrPowerFailed and the durable
// watermark does NOT advance — durability-sensitive callers (group commit)
// must check this error before acknowledging.
func (w *Writer) Sync() error {
	tripAfter, err := w.dev.faultOnSync()
	if err != nil {
		return err
	}
	if sleep, hang := w.dev.graySyncFault(); sleep > 0 || hang != nil {
		if sleep > 0 {
			time.Sleep(sleep) // slow or stalled sync: completes normally after
		}
		if hang != nil {
			// Hung sync: blocks until Disarm (completes normally) or a crash
			// or power failure (fails, durability frozen).
			if err := hang(); err != nil {
				return err
			}
		}
	}
	w.f.mu.Lock()
	w.f.durable = len(w.f.data)
	w.f.mu.Unlock()
	w.dev.syncs.Add(1)
	w.dev.occupy(w.dev.cfg.SyncLatency)
	if tripAfter {
		w.dev.fmu.Lock()
		plan := w.dev.plan
		w.dev.fmu.Unlock()
		if plan != nil {
			plan.trip(w.dev.name, "sync")
		}
	}
	return nil
}

// Size returns the current file length.
func (w *Writer) Size() int64 {
	w.f.mu.Lock()
	defer w.f.mu.Unlock()
	return int64(len(w.f.data))
}

// Reader reads a file with the device's read-bandwidth model applied.
type Reader struct {
	dev *Device
	f   *file
	off int
}

// Read implements io.Reader over the file contents. An armed fault plan
// can fail it: transiently (ErrInjectedRead, one-shot) or terminally
// (ErrPowerFailed after a read-triggered or earlier power failure).
func (r *Reader) Read(p []byte) (int, error) {
	if err := r.dev.faultOnRead(); err != nil {
		return 0, err
	}
	r.f.mu.Lock()
	n := copy(p, r.f.data[r.off:])
	r.off += n
	r.f.mu.Unlock()
	if n == 0 {
		return 0, io.EOF
	}
	r.dev.bytesRead.Add(int64(n))
	r.dev.occupyRead(transferTime(int64(n), r.dev.cfg.ReadBandwidth))
	return n, nil
}

// ReadAll returns the whole file, charging the modeled transfer time once.
// It consults the fault plane like Read.
func (r *Reader) ReadAll() ([]byte, error) {
	if err := r.dev.faultOnRead(); err != nil {
		return nil, err
	}
	r.f.mu.Lock()
	out := append([]byte(nil), r.f.data[r.off:]...)
	r.off = len(r.f.data)
	r.f.mu.Unlock()
	r.dev.bytesRead.Add(int64(len(out)))
	r.dev.occupyRead(transferTime(int64(len(out)), r.dev.cfg.ReadBandwidth))
	return out, nil
}
