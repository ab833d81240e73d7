package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"pacman/internal/frame"
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
// Each record is one frame (see package frame) whose payload starts with
// the kind byte and the gtid.
//
// Recovery semantics: begin without commit → the coordinator never decided
// commit, so presume abort and deliver abort pieces (idempotent). Commit
// without end → the decision is durable but delivery may have been cut
// short; re-deliver commit pieces. A torn record ends the scan — records
// after a torn one were never synced, and a torn begin's prepares were
// never sent (Begin syncs before the router sends anything) — and the
// reopened log is cut back to the end of the last record the scan used
// before anything is appended to it.
const (
	coordLogFile = "2pc-decisions"

	recBegin  byte = 1
	recCommit byte = 2
	recEnd    byte = 3
)

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
// sequence past every id a shard may have seen. A log whose scan stopped
// early is cut back through Device.Replace first: a record appended after
// a torn or undecodable one would be invisible to every later scan.
func openCoordLog(dev *simdisk.Device) (*coordLog, []inDoubt, uint64, error) {
	var pending []inDoubt
	var maxGTID uint64
	if r, err := dev.Open(coordLogFile); err == nil {
		data, err := r.ReadAll()
		if err != nil {
			return nil, nil, 0, fmt.Errorf("shard: reading decision log: %w", err)
		}
		var valid int
		pending, maxGTID, valid = scanCoordLog(data)
		if valid < len(data) {
			if err := dev.Replace(coordLogFile, data[:valid]); err != nil {
				return nil, nil, 0, fmt.Errorf("shard: cutting decision log: %w", err)
			}
		}
	}
	return &coordLog{w: dev.Append(coordLogFile)}, pending, maxGTID, nil
}

var errShortRecord = errors.New("shard: decision record shorter than kind and gtid")

// scanCoordLog replays the record stream, stopping at the first torn or
// corrupt record (the crash-truncated tail) or undecodable begin. valid is
// the end of the last record it used.
func scanCoordLog(data []byte) (pending []inDoubt, maxGTID uint64, valid int) {
	type state struct {
		g         *gtxn
		committed bool
		ended     bool
	}
	var order []uint64
	states := map[uint64]*state{}
	valid, _ = frame.Walk(data, func(payload []byte) error {
		if len(payload) < 9 {
			return errShortRecord
		}
		kind := payload[0]
		gtid := binary.LittleEndian.Uint64(payload[1:])
		if gtid > maxGTID {
			maxGTID = gtid
		}
		switch kind {
		case recBegin:
			g, err := decodeBegin(gtid, payload[9:])
			if err != nil {
				return err // undecodable synced begin: treat as torn
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
		return nil
	})
	for _, gtid := range order {
		st := states[gtid]
		if st.ended {
			continue
		}
		pending = append(pending, inDoubt{g: st.g, committed: st.committed})
	}
	return pending, maxGTID, valid
}

// Begin appends and SYNCS the begin record; the router must not send a
// single prepare before this returns.
func (l *coordLog) Begin(g *gtxn) error {
	rec, base := frame.Reserve(nil)
	rec = append(rec, recBegin)
	rec = binary.LittleEndian.AppendUint64(rec, g.GTID)
	rec = append(rec, byte(len(g.Parts)))
	for _, p := range g.Parts {
		rec = binary.LittleEndian.AppendUint16(rec, uint16(p.Shard))
		rec = appendInvocation(rec, p.Prepare)
		rec = appendInvocation(rec, p.Commit)
		rec = appendInvocation(rec, p.Abort)
	}
	frame.Seal(rec, base)
	return l.write(rec, true)
}

// Commit appends and SYNCS the commit decision; the router must not send a
// single commit decide before this returns.
func (l *coordLog) Commit(gtid uint64) error {
	return l.write(markerRecord(recCommit, gtid), true)
}

// End appends the end record without syncing — losing it only costs a
// harmless re-delivery of idempotent decides at the next recovery.
func (l *coordLog) End(gtid uint64) error {
	return l.write(markerRecord(recEnd, gtid), false)
}

func markerRecord(kind byte, gtid uint64) []byte {
	rec, base := frame.Reserve(make([]byte, 0, frame.HeaderSize+9))
	rec = append(rec, kind)
	rec = binary.LittleEndian.AppendUint64(rec, gtid)
	frame.Seal(rec, base)
	return rec
}

// write appends one framed record in a single device write.
func (l *coordLog) write(rec []byte, sync bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.w.Write(rec); err != nil {
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
