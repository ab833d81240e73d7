// Package frame is the one integrity frame of every file written to a
// device: [u32 len][u32 CRC32-C of the payload][payload], little endian.
// Log batch records, pepoch marker records, both manifests, checkpoint
// shard flushes and coordinator decisions are all sequences of frames; a
// format that needs a type byte carries it in its payload.
//
// A reader walks frames from the start of a file and stops at the first
// one that is short, zero-length or fails its checksum. An appended file
// treats everything from there on as a torn tail and cuts it back before
// appending again; a file written whole must walk to its last byte.
package frame

import (
	"encoding/binary"
	"hash/crc32"
)

// HeaderSize is the length of the [len][crc] header before each payload.
const HeaderSize = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Append appends payload to buf as one frame. The payload must not be
// empty: a zero length ends every walk, so that a zeroed region never reads
// as frames.
func Append(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// Reserve appends a blank header for a payload the caller encodes in place
// after it, and returns the frame's offset for Seal.
func Reserve(buf []byte) ([]byte, int) {
	return append(buf, 0, 0, 0, 0, 0, 0, 0, 0), len(buf)
}

// Seal backfills the header Reserve left at base, framing every byte of buf
// after it as the payload.
func Seal(buf []byte, base int) {
	payload := buf[base+HeaderSize:]
	binary.LittleEndian.PutUint32(buf[base:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[base+4:], crc32.Checksum(payload, crcTable))
}

// Next validates the frame at the start of b and returns its payload and
// the bytes it spans. A short, zero-length or corrupt frame returns n = 0.
func Next(b []byte) (payload []byte, n int) {
	if len(b) < HeaderSize {
		return nil, 0
	}
	plen := binary.LittleEndian.Uint32(b)
	if plen == 0 || uint64(plen) > uint64(len(b)-HeaderSize) {
		return nil, 0
	}
	payload = b[HeaderSize : HeaderSize+int(plen)]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, 0
	}
	return payload, HeaderSize + int(plen)
}

// Walk calls fn on each frame's payload in order. It stops at the first
// invalid frame, or at the first payload fn rejects, whose error it
// returns. valid is the length of the prefix of b holding the frames fn
// accepted: the cut an appended file is truncated back to.
func Walk(b []byte, fn func(payload []byte) error) (valid int, err error) {
	for valid < len(b) {
		payload, n := Next(b[valid:])
		if n == 0 {
			return valid, nil
		}
		if err := fn(payload); err != nil {
			return valid, err
		}
		valid += n
	}
	return valid, nil
}
