package shard

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"pacman/internal/proc"
	"pacman/internal/simdisk"
)

// The coordinator's decision log: presumed abort over three record kinds.
//
//	begin  (synced before any prepare is sent)  — gtid + every participant's
//	        prepare/commit/abort invocations, so recovery can re-drive the
//	        decide phase without the original request
//	commit (synced before any commit decide)    — gtid only
//	end    (unsynced)                           — gtid only; garbage-collects
//	        the transaction from recovery's view
//
// Recovery semantics: begin without commit → the coordinator never decided
// commit, so presume abort and deliver abort pieces (idempotent). Commit
// without end → the decision is durable but delivery may have been cut
// short; re-deliver commit pieces. A torn record ends the scan — records
// after a torn one were never synced, and a torn begin's prepares were
// never sent (Begin syncs before the router sends anything).
const (
	coordLogFile = "2pc-decisions"

	recBegin  byte = 1
	recCommit byte = 2
	recEnd    byte = 3
)

var coordCRC = crc32.MakeTable(crc32.Castagnoli)

// coordLog is the append-only decision log on one simulated device.
type coordLog struct {
	mu sync.Mutex
	w  *simdisk.Writer
}

// inDoubt is one unfinished transaction found by the recovery scan.
type inDoubt struct {
	g         *gtxn
	committed bool
}

// openCoordLog opens (or creates) the decision log on dev, scanning any
// existing contents: it returns the unfinished transactions in log order
// and the highest gtid ever begun, so the reopened router resumes its gtid
// sequence past every id a shard may have seen.
func openCoordLog(dev *simdisk.Device) (*coordLog, []inDoubt, uint64, error) {
	var pending []inDoubt
	var maxGTID uint64
	if r, err := dev.Open(coordLogFile); err == nil {
		data, err := r.ReadAll()
		if err != nil {
			return nil, nil, 0, fmt.Errorf("shard: reading decision log: %w", err)
		}
		pending, maxGTID = scanCoordLog(data)
	}
	return &coordLog{w: dev.Append(coordLogFile)}, pending, maxGTID, nil
}

// scanCoordLog replays the record stream, stopping at the first torn or
// corrupt record (the crash-truncated tail).
func scanCoordLog(data []byte) ([]inDoubt, uint64) {
	type state struct {
		g         *gtxn
		committed bool
		ended     bool
	}
	var order []uint64
	states := map[uint64]*state{}
	var maxGTID uint64
scan:
	for off := 0; off+8 <= len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		off += 8
		if n < 9 || off+n > len(data) {
			break // torn tail
		}
		payload := data[off : off+n]
		if crc32.Checksum(payload, coordCRC) != crc {
			break
		}
		off += n
		kind := payload[0]
		gtid := binary.LittleEndian.Uint64(payload[1:])
		if gtid > maxGTID {
			maxGTID = gtid
		}
		switch kind {
		case recBegin:
			g, err := decodeBegin(gtid, payload[9:])
			if err != nil {
				break scan // undecodable synced begin: treat as torn
			}
			if _, dup := states[gtid]; !dup {
				order = append(order, gtid)
				states[gtid] = &state{g: g}
			}
		case recCommit:
			if st := states[gtid]; st != nil {
				st.committed = true
			}
		case recEnd:
			if st := states[gtid]; st != nil {
				st.ended = true
			}
		}
	}
	var pending []inDoubt
	for _, gtid := range order {
		st := states[gtid]
		if st.ended {
			continue
		}
		pending = append(pending, inDoubt{g: st.g, committed: st.committed})
	}
	return pending, maxGTID
}

// Begin appends and SYNCS the begin record; the router must not send a
// single prepare before this returns.
func (l *coordLog) Begin(g *gtxn) error {
	payload := []byte{recBegin}
	payload = binary.LittleEndian.AppendUint64(payload, g.GTID)
	payload = append(payload, byte(len(g.Parts)))
	for _, p := range g.Parts {
		payload = binary.LittleEndian.AppendUint16(payload, uint16(p.Shard))
		payload = appendInvocation(payload, p.Prepare)
		payload = appendInvocation(payload, p.Commit)
		payload = appendInvocation(payload, p.Abort)
	}
	return l.append(payload, true)
}

// Commit appends and SYNCS the commit decision; the router must not send a
// single commit decide before this returns.
func (l *coordLog) Commit(gtid uint64) error {
	return l.append(markerPayload(recCommit, gtid), true)
}

// End appends the end record without syncing — losing it only costs a
// harmless re-delivery of idempotent decides at the next recovery.
func (l *coordLog) End(gtid uint64) error {
	return l.append(markerPayload(recEnd, gtid), false)
}

func markerPayload(kind byte, gtid uint64) []byte {
	payload := []byte{kind}
	return binary.LittleEndian.AppendUint64(payload, gtid)
}

func (l *coordLog) append(payload []byte, sync bool) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, coordCRC))
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := l.w.Write(payload); err != nil {
		return err
	}
	if sync {
		return l.w.Sync()
	}
	return nil
}

func appendInvocation(b []byte, inv Invocation) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(inv.Proc)))
	b = append(b, inv.Proc...)
	return proc.AppendArgs(b, inv.Args)
}

func decodeBegin(gtid uint64, b []byte) (*gtxn, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("shard: truncated begin record")
	}
	n := int(b[0])
	b = b[1:]
	g := &gtxn{GTID: gtid, Parts: make([]Participant, 0, n)}
	for i := 0; i < n; i++ {
		if len(b) < 2 {
			return nil, fmt.Errorf("shard: truncated begin record")
		}
		p := Participant{Shard: int(binary.LittleEndian.Uint16(b))}
		b = b[2:]
		var err error
		if p.Prepare, b, err = decodeInvocation(b); err != nil {
			return nil, err
		}
		if p.Commit, b, err = decodeInvocation(b); err != nil {
			return nil, err
		}
		if p.Abort, b, err = decodeInvocation(b); err != nil {
			return nil, err
		}
		g.Parts = append(g.Parts, p)
	}
	return g, nil
}

func decodeInvocation(b []byte) (Invocation, []byte, error) {
	if len(b) < 2 {
		return Invocation{}, nil, fmt.Errorf("shard: truncated invocation")
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return Invocation{}, nil, fmt.Errorf("shard: truncated invocation name")
	}
	inv := Invocation{Proc: string(b[:n])}
	b = b[n:]
	args, used, err := proc.DecodeArgs(b)
	if err != nil {
		return Invocation{}, nil, fmt.Errorf("shard: decoding invocation args: %w", err)
	}
	inv.Args = args
	return inv, b[used:], nil
}
