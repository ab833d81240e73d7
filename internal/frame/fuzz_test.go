package frame_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"pacman"
	"pacman/internal/frame"
	"pacman/internal/workload"
)

// batchHeaderSize is the unframed header a log batch file starts with
// (magic u32, version, kind, logger u16, batch u32); frames follow it.
const batchHeaderSize = 12

func nop([]byte) error { return nil }

// addDeviceSeeds runs a bank instance under each logging scheme — deposits,
// a checkpoint, a clean close — and adds every file it wrote as a seed:
// log batch records, pepoch marker records, the catalog manifest, the
// checkpoint manifest and the checkpoint shards, each from its own writer.
func addDeviceSeeds(f *testing.F) {
	spec := workload.Spec(workload.NewBank(10))
	bp := pacman.Blueprint{Tables: spec.Tables, Procedures: spec.Procs, Seed: spec.Seed}
	for _, kind := range []pacman.LogKind{pacman.CommandLogging, pacman.PhysicalLogging, pacman.LogicalLogging} {
		db, err := pacman.Launch(bp, pacman.Options{Logging: kind, EpochInterval: time.Millisecond})
		if err != nil {
			f.Fatal(err)
		}
		fe, err := db.NewFrontend(pacman.FrontendConfig{Workers: 1})
		if err != nil {
			f.Fatal(err)
		}
		for i := int64(1); i <= 4; i++ {
			if _, err := fe.Submit("Deposit", pacman.Args{pacman.A(pacman.I(i)), pacman.A(pacman.I(7)), pacman.A(pacman.I(1))}).Wait(); err != nil {
				f.Fatal(err)
			}
		}
		fe.Close()
		if err := db.Checkpoint(); err != nil {
			f.Fatal(err)
		}
		db.Close()
		for _, dev := range db.Devices() {
			for _, name := range dev.List("") {
				r, err := dev.Open(name)
				if err != nil {
					f.Fatal(err)
				}
				b, err := r.ReadAll()
				if err != nil {
					f.Fatal(err)
				}
				if strings.HasPrefix(name, "log-") {
					b = b[batchHeaderSize:]
				}
				if valid, _ := frame.Walk(b, nop); valid != len(b) {
					f.Fatalf("%v file %s: only %d of its %d bytes walk", kind, name, valid, len(b))
				}
				f.Add(b)
			}
		}
	}
}

// addDecisionSeeds adds a coordinator decision log: a begin of two
// participants, its commit and its end, each payload led by its kind byte
// and gtid.
func addDecisionSeeds(f *testing.F) {
	begin := binary.LittleEndian.AppendUint64([]byte{1}, 9)
	begin = append(begin, 2)
	for shard := uint16(0); shard < 2; shard++ {
		begin = binary.LittleEndian.AppendUint16(begin, shard)
		for _, name := range []string{"PayPrepare", "PayCommit", "PayAbort"} {
			begin = binary.LittleEndian.AppendUint16(begin, uint16(len(name)))
			begin = append(append(begin, name...), 0)
		}
	}
	log := frame.Append(nil, begin)
	log = frame.Append(log, binary.LittleEndian.AppendUint64([]byte{2}, 9))
	log = frame.Append(log, binary.LittleEndian.AppendUint64([]byte{3}, 9))
	f.Add(log)
	f.Add(log[:len(log)-3]) // torn end record
}

// FuzzWalk checks the frame walk on any input: it never panics; a length
// word larger than the bytes left stops it without allocating; the valid
// prefix walks again to the same length and re-encodes byte for byte from
// its payloads; and Walk(Append(ps...)) returns ps for payloads cut from
// the input.
func FuzzWalk(f *testing.F) {
	addDeviceSeeds(f)
	addDecisionSeeds(f)
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		var ps [][]byte
		valid, err := frame.Walk(b, func(p []byte) error {
			ps = append(ps, p)
			return nil
		})
		if err != nil || valid < 0 || valid > len(b) {
			t.Fatalf("Walk = %d, %v over %d bytes", valid, err, len(b))
		}
		if again, _ := frame.Walk(b[:valid], nop); again != valid {
			t.Fatalf("walking the %d-byte valid prefix again gives %d", valid, again)
		}
		var enc []byte
		for _, p := range ps {
			enc = frame.Append(enc, p)
		}
		if !bytes.Equal(enc, b[:valid]) {
			t.Fatal("re-encoding the walked payloads does not reproduce the valid prefix")
		}
		rest := b[valid:]
		if _, n := frame.Next(rest); len(rest) > 0 && n != 0 {
			t.Fatalf("walk stopped before a frame Next accepts (%d bytes)", n)
		}
		if len(rest) >= frame.HeaderSize && int64(binary.LittleEndian.Uint32(rest)) > int64(len(rest)-frame.HeaderSize) {
			if allocs := testing.AllocsPerRun(1, func() { frame.Walk(rest, nop) }); allocs != 0 {
				t.Fatalf("a length past the end allocated %v times", allocs)
			}
		}

		var qs [][]byte
		var framed []byte
		for cut := b; len(cut) > 0; {
			n := min(1+int(cut[0])%16, len(cut))
			qs = append(qs, cut[:n])
			framed = frame.Append(framed, cut[:n])
			cut = cut[n:]
		}
		var got [][]byte
		end, _ := frame.Walk(framed, func(p []byte) error {
			got = append(got, p)
			return nil
		})
		if end != len(framed) || len(got) != len(qs) {
			t.Fatalf("Walk(Append(%d payloads)) = %d payloads, %d of %d bytes", len(qs), len(got), end, len(framed))
		}
		for i := range qs {
			if !bytes.Equal(got[i], qs[i]) {
				t.Fatalf("payload %d = %x, want %x", i, got[i], qs[i])
			}
		}
	})
}
