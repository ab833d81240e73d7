package shard

import (
	"encoding/binary"
	"testing"

	"pacman/internal/frame"
	"pacman/internal/simdisk"
)

// undecodableBegin is a begin record whose checksum holds but whose body
// does not decode: one participant announced, none encoded.
func undecodableBegin(gtid uint64) []byte {
	payload := binary.LittleEndian.AppendUint64([]byte{recBegin}, gtid)
	return frame.Append(nil, append(payload, 1))
}

func inDoubtGTIDs(pending []inDoubt) []uint64 {
	var gtids []uint64
	for _, p := range pending {
		gtids = append(gtids, p.g.GTID)
	}
	return gtids
}

// TestScanCoordLogStopsAtUndecodableBegin: a begin record whose checksum
// holds but whose body does not decode ends the scan like a torn record.
// Records after it, here a begin of another gtid, are not recovered.
func TestScanCoordLogStopsAtUndecodableBegin(t *testing.T) {
	dev := simdisk.New("router-log", simdisk.Config{})
	log, _, _, err := openCoordLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Begin(&gtxn{GTID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := log.write(undecodableBegin(2), true); err != nil {
		t.Fatal(err)
	}
	if err := log.Begin(&gtxn{GTID: 3}); err != nil {
		t.Fatal(err)
	}

	_, pending, maxGTID, err := openCoordLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	if gtids := inDoubtGTIDs(pending); len(gtids) != 1 || gtids[0] != 1 {
		t.Fatalf("recovered in-doubt gtids %v, want [1]: the scan went past the undecodable begin", gtids)
	}
	if maxGTID != 2 {
		t.Fatalf("max gtid = %d, want 2 (the undecodable begin's, no further)", maxGTID)
	}
}

// reopenAfterBadTail logs a begin of gtid 1 followed by the bad record,
// reopens the log, begins gtid 3 and reopens it again. Both begins must
// come back in doubt: a router that appends after the bad record without
// cutting it away loses every decision it logs to the restart after.
func reopenAfterBadTail(t *testing.T, bad []byte) {
	dev := simdisk.New("router-log", simdisk.Config{})
	log, _, _, err := openCoordLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Begin(&gtxn{GTID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := log.write(bad, true); err != nil {
		t.Fatal(err)
	}

	log, pending, _, err := openCoordLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	if gtids := inDoubtGTIDs(pending); len(gtids) != 1 || gtids[0] != 1 {
		t.Fatalf("first reopen: in-doubt gtids %v, want [1]", gtids)
	}
	if err := log.Begin(&gtxn{GTID: 3}); err != nil {
		t.Fatal(err)
	}

	_, pending, maxGTID, err := openCoordLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	if gtids := inDoubtGTIDs(pending); len(gtids) != 2 || gtids[0] != 1 || gtids[1] != 3 {
		t.Fatalf("second reopen: in-doubt gtids %v, want [1 3]: the begin logged after the first reopen was lost", gtids)
	}
	if maxGTID != 3 {
		t.Fatalf("max gtid = %d, want 3", maxGTID)
	}
}

// TestCoordLogCutsUndecodableBegin: the bad record is a CRC-valid begin
// that does not decode.
func TestCoordLogCutsUndecodableBegin(t *testing.T) {
	reopenAfterBadTail(t, undecodableBegin(2))
}

// TestCoordLogCutsTornTail: the bad record is a torn frame.
func TestCoordLogCutsTornTail(t *testing.T) {
	reopenAfterBadTail(t, undecodableBegin(2)[:frame.HeaderSize+3])
}
