package shard

import (
	"encoding/binary"
	"testing"

	"pacman/internal/simdisk"
)

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
	// One participant announced, none encoded.
	bad := binary.LittleEndian.AppendUint64([]byte{recBegin}, 2)
	if err := log.append(append(bad, 1), true); err != nil {
		t.Fatal(err)
	}
	if err := log.Begin(&gtxn{GTID: 3}); err != nil {
		t.Fatal(err)
	}

	_, pending, maxGTID, err := openCoordLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].g.GTID != 1 {
		var gtids []uint64
		for _, p := range pending {
			gtids = append(gtids, p.g.GTID)
		}
		t.Fatalf("recovered in-doubt gtids %v, want [1]: the scan went past the undecodable begin", gtids)
	}
	if maxGTID != 2 {
		t.Fatalf("max gtid = %d, want 2 (the undecodable begin's, no further)", maxGTID)
	}
}
