package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"

	"pacman/internal/frame"
	"pacman/internal/proc"
	"pacman/internal/simdisk"
	"pacman/internal/tuple"
)

// Catalog manifest
//
// Start persists a description of everything recovery needs to agree on with
// the original instance — table schemas in catalog order, procedure names in
// registration order (registration order assigns the procedure IDs recorded
// in command logs), per-procedure operation fingerprints, the logging kind,
// the batch-epoch geometry, and a fingerprint of the deterministic initial
// population. Restart validates a declared Blueprint against this record and
// fails loudly on drift instead of silently misreplaying command logs
// against the wrong catalog.

// CatalogManifestName is the manifest file, written (synced) to the first
// device alongside the pepoch marker.
const CatalogManifestName = "catalog.manifest"

// ErrNoManifest reports a device with no catalog manifest — the instance
// that wrote the logs was never started through the manifest-persisting
// lifecycle (Launch / Start).
var ErrNoManifest = errors.New("wal: no catalog manifest on device")

// ErrManifestMismatch reports a Blueprint that diverges from the persisted
// catalog manifest; the wrapping error carries the field-level diagnostic.
var ErrManifestMismatch = errors.New("wal: blueprint does not match catalog manifest")

// TableDef is one table's schema as recorded in the manifest.
type TableDef struct {
	Name    string
	Columns []tuple.ColumnDef
}

// ProcDef is one registered procedure as recorded in the manifest, in
// registration order. Fingerprint hashes the compiled operation stream, so a
// same-named procedure whose body changed is still caught.
type ProcDef struct {
	Name        string
	Fingerprint uint64
}

// CatalogManifest is the persisted catalog description.
type CatalogManifest struct {
	// Kind is the logging scheme the instance ran under; Restart derives the
	// recovery scheme from it when the caller does not pin one.
	Kind Kind
	// BatchEpochs is the epochs-per-batch-file geometry. A restarted
	// instance must keep it so resumed epochs map to fresh batch files
	// instead of colliding with reloaded ones.
	BatchEpochs uint32
	// EpochNanos is the group-commit epoch interval in nanoseconds. Restart
	// inherits it by default so the restarted instance keeps the crashed
	// instance's durability cadence (and with it its commit latency).
	EpochNanos uint64
	// Tables lists schemas in catalog (table-ID) order.
	Tables []TableDef
	// Procs lists procedures in registration (procedure-ID) order.
	Procs []ProcDef
	// SeedFP fingerprints the deterministic initial population (see
	// SeedHash; an instance with no seeded rows records the empty-hash
	// value). SeedUnverified marks an instance whose population was
	// installed outside the fingerprinting seed path — Diff refuses to
	// validate such a manifest.
	SeedFP uint64
}

// SeedUnverified is the SeedFP sentinel for instances whose initial
// population was installed outside the fingerprinting seed path (e.g. an
// adopted workload catalog populated directly). Their logs are recoverable
// with the raw offline path, but a blueprint restart cannot prove the
// population matches, so Diff rejects the manifest outright instead of
// letting a nil-seed blueprint validate against an unseeded catalog.
const SeedUnverified = ^uint64(0)

// encodeCatalogManifest serializes m as one frame.
func encodeCatalogManifest(m *CatalogManifest) []byte {
	var p []byte
	p = append(p, byte(m.Kind))
	p = binary.LittleEndian.AppendUint32(p, m.BatchEpochs)
	p = binary.LittleEndian.AppendUint64(p, m.EpochNanos)
	p = binary.LittleEndian.AppendUint64(p, m.SeedFP)
	p = binary.LittleEndian.AppendUint16(p, uint16(len(m.Tables)))
	for _, t := range m.Tables {
		p = appendString(p, t.Name)
		p = binary.LittleEndian.AppendUint16(p, uint16(len(t.Columns)))
		for _, c := range t.Columns {
			p = appendString(p, c.Name)
			p = append(p, byte(c.Kind))
		}
	}
	p = binary.LittleEndian.AppendUint16(p, uint16(len(m.Procs)))
	for _, pr := range m.Procs {
		p = appendString(p, pr.Name)
		p = binary.LittleEndian.AppendUint64(p, pr.Fingerprint)
	}
	return frame.Append(nil, p)
}

// decodeCatalogManifest parses an encoded manifest: exactly one valid
// frame, or the file is torn or corrupt.
func decodeCatalogManifest(b []byte) (*CatalogManifest, error) {
	p, n := frame.Next(b)
	if n == 0 || n != len(b) {
		return nil, fmt.Errorf("wal: catalog manifest torn or corrupt")
	}
	d := &manifestDecoder{b: p}
	m := &CatalogManifest{
		Kind:        Kind(d.byte()),
		BatchEpochs: d.u32(),
		EpochNanos:  d.u64(),
		SeedFP:      d.u64(),
	}
	for n := d.u16(); n > 0 && d.err == nil; n-- {
		t := TableDef{Name: d.str()}
		for c := d.u16(); c > 0 && d.err == nil; c-- {
			t.Columns = append(t.Columns, tuple.ColumnDef{Name: d.str(), Kind: tuple.Kind(d.byte())})
		}
		m.Tables = append(m.Tables, t)
	}
	for n := d.u16(); n > 0 && d.err == nil; n-- {
		m.Procs = append(m.Procs, ProcDef{Name: d.str(), Fingerprint: d.u64()})
	}
	if d.err != nil {
		return nil, d.err
	}
	return m, nil
}

type manifestDecoder struct {
	b   []byte
	err error
}

func (d *manifestDecoder) take(n int) []byte {
	if d.err != nil || len(d.b) < n {
		d.err = fmt.Errorf("wal: catalog manifest truncated")
		return make([]byte, n)
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *manifestDecoder) byte() byte  { return d.take(1)[0] }
func (d *manifestDecoder) u16() uint16 { return binary.LittleEndian.Uint16(d.take(2)) }
func (d *manifestDecoder) u32() uint32 { return binary.LittleEndian.Uint32(d.take(4)) }
func (d *manifestDecoder) u64() uint64 { return binary.LittleEndian.Uint64(d.take(8)) }
func (d *manifestDecoder) str() string {
	n := int(d.u16())
	return string(d.take(n))
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// WriteCatalogManifest persists m to the device through Device.Replace. A
// restart rewrites the manifest the same way, so a crash mid-rewrite can
// never leave the device without a readable manifest: either the old one
// or the new one is in place.
func WriteCatalogManifest(dev *simdisk.Device, m *CatalogManifest) error {
	return dev.Replace(CatalogManifestName, encodeCatalogManifest(m))
}

// ReadCatalogManifest loads the manifest from the device; ErrNoManifest if
// the instance never persisted one.
func ReadCatalogManifest(dev *simdisk.Device) (*CatalogManifest, error) {
	r, err := dev.Open(CatalogManifestName)
	if err != nil {
		if errors.Is(err, simdisk.ErrNotExist) {
			return nil, fmt.Errorf("%w %s", ErrNoManifest, dev.Name())
		}
		return nil, err
	}
	b, err := r.ReadAll()
	if err != nil {
		return nil, err
	}
	return decodeCatalogManifest(b)
}

// Diff validates a declared catalog (built from the restart Blueprint)
// against the persisted manifest m. It returns nil when the blueprint can
// faithfully replay m's logs, or an ErrManifestMismatch-wrapped error whose
// message lists every divergence — reordered, missing, added, or reshaped
// tables and procedures, and a changed initial population.
func (m *CatalogManifest) Diff(decl *CatalogManifest) error {
	if m.SeedFP == SeedUnverified {
		return fmt.Errorf("%w: the manifest records a population installed outside the blueprint seed path (an adopted catalog populated directly); its seed cannot be validated — recover these devices with the offline DB.Recover instead", ErrManifestMismatch)
	}
	var probs []string
	if len(decl.Tables) != len(m.Tables) {
		probs = append(probs, fmt.Sprintf("table count: blueprint declares %d, manifest recorded %d",
			len(decl.Tables), len(m.Tables)))
	}
	for i := 0; i < len(decl.Tables) && i < len(m.Tables); i++ {
		d, r := decl.Tables[i], m.Tables[i]
		if d.Name != r.Name {
			probs = append(probs, fmt.Sprintf("table %d: blueprint declares %q, manifest recorded %q (table IDs are assigned in declaration order)",
				i, d.Name, r.Name))
			continue
		}
		if len(d.Columns) != len(r.Columns) {
			probs = append(probs, fmt.Sprintf("table %q: blueprint has %d columns, manifest recorded %d",
				d.Name, len(d.Columns), len(r.Columns)))
			continue
		}
		for c := range d.Columns {
			if d.Columns[c] != r.Columns[c] {
				probs = append(probs, fmt.Sprintf("table %q column %d: blueprint declares %s %v, manifest recorded %s %v",
					d.Name, c, d.Columns[c].Name, d.Columns[c].Kind, r.Columns[c].Name, r.Columns[c].Kind))
			}
		}
	}
	if len(decl.Procs) != len(m.Procs) {
		probs = append(probs, fmt.Sprintf("procedure count: blueprint registers %d, manifest recorded %d",
			len(decl.Procs), len(m.Procs)))
	}
	for i := 0; i < len(decl.Procs) && i < len(m.Procs); i++ {
		d, r := decl.Procs[i], m.Procs[i]
		if d.Name != r.Name {
			probs = append(probs, fmt.Sprintf("procedure %d: blueprint registers %q, manifest recorded %q (registration order assigns the procedure IDs replayed from command logs)",
				i, d.Name, r.Name))
			continue
		}
		if d.Fingerprint != r.Fingerprint {
			probs = append(probs, fmt.Sprintf("procedure %q: body changed since the logs were written (fingerprint %016x, manifest recorded %016x)",
				d.Name, d.Fingerprint, r.Fingerprint))
		}
	}
	if decl.SeedFP != m.SeedFP {
		probs = append(probs, fmt.Sprintf("initial population: blueprint seed fingerprint %016x, manifest recorded %016x (the seed must be deterministic and unchanged)",
			decl.SeedFP, m.SeedFP))
	}
	if len(probs) == 0 {
		return nil
	}
	return fmt.Errorf("%w:\n  - %s", ErrManifestMismatch, strings.Join(probs, "\n  - "))
}

// ProcFingerprint hashes a compiled procedure's identity-relevant shape: its
// name, parameter count, and the ordered operation stream (kind, table, flow
// dependencies, loop nesting). Two registrations that replay command-log
// records identically hash equal; a changed body hashes differently.
func ProcFingerprint(c *proc.Compiled) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(c.Name()))
	u(uint64(c.NumParams()))
	for _, op := range c.Ops() {
		u(uint64(op.Kind))
		h.Write([]byte(op.Table))
		u(uint64(len(op.FlowDeps)))
		for _, d := range op.FlowDeps {
			u(uint64(d))
		}
		u(uint64(len(op.Loops)))
	}
	return h.Sum64()
}

// SeedHash incrementally fingerprints a deterministic initial population:
// fold every seeded row in seeding order, then Sum. Launch and Restart both
// fold the blueprint's seed through it, so a drifted population is caught at
// restart instead of corrupting replay.
type SeedHash struct {
	h    uint64
	rows int
	buf  []byte
}

// NewSeedHash returns an empty fingerprint accumulator.
func NewSeedHash() *SeedHash {
	return &SeedHash{h: 14695981039346656037} // FNV-64a offset basis
}

// Rows returns how many rows have been folded.
func (s *SeedHash) Rows() int { return s.rows }

// Row folds one seeded row (in seeding order).
func (s *SeedHash) Row(table string, key uint64, vals tuple.Tuple) {
	s.rows++
	s.buf = s.buf[:0]
	s.buf = appendString(s.buf, table)
	s.buf = binary.LittleEndian.AppendUint64(s.buf, key)
	s.buf = tuple.AppendTuple(s.buf, vals)
	for _, b := range s.buf {
		s.h ^= uint64(b)
		s.h *= 1099511628211 // FNV-64 prime
	}
}

// Sum returns the fingerprint of the rows folded so far.
func (s *SeedHash) Sum() uint64 { return s.h }
