// Package wal implements the three logging schemes of the evaluation —
// physical (PL), logical (LL), and command (CL) logging — with SiloR-style
// epoch group commit, finite-size log batch files, and the pepoch
// durability marker (paper Appendix A). It also provides the parallel
// reload path every recovery scheme shares.
package wal

import (
	"encoding/binary"
	"fmt"

	"pacman/internal/engine"
	"pacman/internal/frame"
	"pacman/internal/proc"
	"pacman/internal/tuple"
	"pacman/internal/txn"
)

// Kind selects the logging scheme.
type Kind int

// Logging schemes. Off disables logging entirely (the paper's OFF
// baseline).
const (
	Off Kind = iota
	Physical
	Logical
	Command
)

func (k Kind) String() string {
	switch k {
	case Off:
		return "OFF"
	case Physical:
		return "PL"
	case Logical:
		return "LL"
	case Command:
		return "CL"
	}
	return "?"
}

// EntryKind distinguishes decoded entries: a command entry re-executes a
// stored procedure; a tuple entry reinstalls after-images.
type EntryKind uint8

// Entry kinds.
const (
	EntryCommand EntryKind = iota
	EntryTuple
)

// WriteImage is one decoded tuple modification.
type WriteImage struct {
	TableID int
	Slot    uint64
	Key     uint64
	Deleted bool
	After   tuple.Tuple
}

// Entry is one decoded log record: a committed transaction.
type Entry struct {
	TS     engine.TS
	Kind   EntryKind
	ProcID int
	Args   proc.Args
	Writes []WriteImage
	// Dist marks a distributed transaction (a cross-shard 2PC piece): its
	// effects were logged as values even under command logging, so replay
	// never re-executes it and never depends on another shard's state.
	Dist bool
}

// Epoch returns the entry's commit epoch.
func (e *Entry) Epoch() uint32 { return engine.EpochOf(e.TS) }

const (
	fileMagic   = 0x5041434C // "PACL"
	fileVersion = 1

	flagAdHoc   = 1 << 0
	flagDist    = 1 << 1
	flagDeleted = 1 << 0
)

// appendFileHeader writes the batch file header.
func appendFileHeader(buf []byte, kind Kind, loggerID int, batch uint32) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, fileMagic)
	buf = append(buf, fileVersion, byte(kind))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(loggerID))
	buf = binary.LittleEndian.AppendUint32(buf, batch)
	return buf
}

const fileHeaderSize = 4 + 1 + 1 + 2 + 4

// decodeFileHeader validates and strips the header.
func decodeFileHeader(b []byte) (kind Kind, loggerID int, batch uint32, rest []byte, err error) {
	if len(b) < fileHeaderSize {
		return 0, 0, 0, nil, fmt.Errorf("wal: file shorter than header")
	}
	if binary.LittleEndian.Uint32(b) != fileMagic {
		return 0, 0, 0, nil, fmt.Errorf("wal: bad magic")
	}
	if b[4] != fileVersion {
		return 0, 0, 0, nil, fmt.Errorf("wal: unsupported version %d", b[4])
	}
	kind = Kind(b[5])
	loggerID = int(binary.LittleEndian.Uint16(b[6:8]))
	batch = binary.LittleEndian.Uint32(b[8:12])
	return kind, loggerID, batch, b[fileHeaderSize:], nil
}

// encodeRecord appends one framed record (see package frame) for the given
// logging scheme. Under command logging, ad-hoc transactions fall back to a
// logical tuple record (Section 4.5), and distributed transactions (2PC
// pieces of a cross-shard commit) do the same so one shard's replay never
// depends on another shard's state — the mixed stream stays REDO-only and
// single-pass. The payload is encoded directly into buf — the frame header
// is reserved up front and backfilled — so a flush reusing one encode
// buffer performs no per-record allocation.
func encodeRecord(buf []byte, kind Kind, c *txn.Committed) []byte {
	if kind == Off {
		return buf // Off: nothing
	}
	buf, base := frame.Reserve(buf)
	buf = binary.LittleEndian.AppendUint64(buf, c.TS)
	var flags byte
	if c.AdHoc {
		flags |= flagAdHoc
	}
	if c.Dist {
		flags |= flagDist
	}
	switch {
	case kind == Command && flags == 0:
		buf = append(buf, 0) // flags
		buf = binary.LittleEndian.AppendUint16(buf, uint16(c.Proc.ID()))
		buf = proc.AppendArgs(buf, c.Args)
	case kind == Command:
		buf = append(buf, flags)
		buf = appendLogicalWrites(buf, c.Writes)
	case kind == Logical:
		buf = append(buf, flags)
		buf = appendLogicalWrites(buf, c.Writes)
	case kind == Physical:
		buf = append(buf, flags)
		buf = appendPhysicalWrites(buf, c.Writes)
	default:
		return buf[:base] // unknown kind: drop the reserved frame
	}
	frame.Seal(buf, base)
	return buf
}

func appendLogicalWrites(buf []byte, ws []txn.WriteRec) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(ws)))
	for _, w := range ws {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(w.Table.ID()))
		buf = binary.LittleEndian.AppendUint64(buf, w.Key)
		if w.Deleted {
			buf = append(buf, flagDeleted)
		} else {
			buf = append(buf, 0)
			buf = tuple.AppendTuple(buf, w.After)
		}
	}
	return buf
}

// appendPhysicalWrites adds the physical form: like logical but carrying the
// slab slot and the old/new version addresses. The address words are what
// make physical records strictly larger than logical ones, as the paper's
// Table 1 observes ("it must record the locations of the old and new
// versions of every modified tuple").
func appendPhysicalWrites(buf []byte, ws []txn.WriteRec) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(ws)))
	for _, w := range ws {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(w.Table.ID()))
		buf = binary.LittleEndian.AppendUint64(buf, w.Slot)
		buf = binary.LittleEndian.AppendUint64(buf, w.Key)
		// Old/new version addresses: synthesized from the slot, matching
		// the field layout (and size) a pointer-based engine would log.
		buf = binary.LittleEndian.AppendUint64(buf, w.Slot<<16|0xA)
		buf = binary.LittleEndian.AppendUint64(buf, w.Slot<<16|0xB)
		if w.Deleted {
			buf = append(buf, flagDeleted)
		} else {
			buf = append(buf, 0)
			buf = tuple.AppendTuple(buf, w.After)
		}
	}
	return buf
}

// payloadTS reads a payload's leading commit-timestamp word without
// decoding the rest (0 when the payload is too short to hold one).
func payloadTS(p []byte) engine.TS {
	if len(p) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// decodeRecord decodes one framed record, returning the bytes consumed.
// A framing or checksum error returns consumed = 0: the caller treats it
// as a torn tail and stops.
func decodeRecord(b []byte, kind Kind) (*Entry, int, error) {
	payload, n := frame.Next(b)
	if n == 0 {
		return nil, 0, nil
	}
	e, err := decodePayload(payload, kind)
	if err != nil {
		return nil, 0, err
	}
	return e, n, nil
}

func decodePayload(p []byte, kind Kind) (*Entry, error) {
	if len(p) < 9 {
		return nil, fmt.Errorf("wal: payload too short")
	}
	e := &Entry{TS: binary.LittleEndian.Uint64(p)}
	flags := p[8]
	e.Dist = flags&flagDist != 0
	rest := p[9:]
	switch {
	case kind == Command && flags&(flagAdHoc|flagDist) == 0:
		if len(rest) < 2 {
			return nil, fmt.Errorf("wal: command record truncated")
		}
		e.Kind = EntryCommand
		e.ProcID = int(binary.LittleEndian.Uint16(rest))
		args, _, err := proc.DecodeArgs(rest[2:])
		if err != nil {
			return nil, err
		}
		e.Args = args
	case kind == Logical || kind == Command:
		e.Kind = EntryTuple
		ws, err := decodeLogicalWrites(rest)
		if err != nil {
			return nil, err
		}
		e.Writes = ws
	case kind == Physical:
		e.Kind = EntryTuple
		ws, err := decodePhysicalWrites(rest)
		if err != nil {
			return nil, err
		}
		e.Writes = ws
	default:
		return nil, fmt.Errorf("wal: cannot decode records of kind %v", kind)
	}
	return e, nil
}

func decodeLogicalWrites(b []byte) ([]WriteImage, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("wal: writes truncated")
	}
	n := int(binary.LittleEndian.Uint16(b))
	off := 2
	out := make([]WriteImage, 0, n)
	for i := 0; i < n; i++ {
		if len(b[off:]) < 11 {
			return nil, fmt.Errorf("wal: write %d truncated", i)
		}
		w := WriteImage{
			TableID: int(binary.LittleEndian.Uint16(b[off:])),
			Key:     binary.LittleEndian.Uint64(b[off+2:]),
		}
		flags := b[off+10]
		off += 11
		if flags&flagDeleted != 0 {
			w.Deleted = true
		} else {
			t, sz, err := tuple.DecodeTuple(b[off:])
			if err != nil {
				return nil, err
			}
			w.After = t
			off += sz
		}
		out = append(out, w)
	}
	return out, nil
}

func decodePhysicalWrites(b []byte) ([]WriteImage, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("wal: writes truncated")
	}
	n := int(binary.LittleEndian.Uint16(b))
	off := 2
	out := make([]WriteImage, 0, n)
	for i := 0; i < n; i++ {
		if len(b[off:]) < 2+8+8+8+8+1 {
			return nil, fmt.Errorf("wal: physical write %d truncated", i)
		}
		w := WriteImage{
			TableID: int(binary.LittleEndian.Uint16(b[off:])),
			Slot:    binary.LittleEndian.Uint64(b[off+2:]),
			Key:     binary.LittleEndian.Uint64(b[off+10:]),
		}
		// Skip the old/new version address words.
		flags := b[off+34]
		off += 35
		if flags&flagDeleted != 0 {
			w.Deleted = true
		} else {
			t, sz, err := tuple.DecodeTuple(b[off:])
			if err != nil {
				return nil, err
			}
			w.After = t
			off += sz
		}
		out = append(out, w)
	}
	return out, nil
}
