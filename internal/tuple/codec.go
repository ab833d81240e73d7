package tuple

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary encoding
//
// Value:  1-byte kind, then payload:
//   null   — nothing
//   int    — 8 bytes little-endian two's complement
//   float  — 8 bytes little-endian IEEE-754 bits
//   string — 4-byte little-endian length + raw bytes
// Tuple:  2-byte little-endian column count, then each value.
//
// The format is self-describing (no schema needed to decode), fixed-cost for
// numerics, and append-friendly so loggers can serialize straight into their
// flush buffers.

// ErrCorrupt is returned when decoding runs off the end of the buffer or
// meets an unknown kind tag.
var ErrCorrupt = errors.New("tuple: corrupt encoding")

const maxStringLen = 1 << 30 // sanity bound when decoding untrusted bytes

// AppendValue appends the encoding of v to buf and returns the extended buf.
func AppendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindInt, KindFloat:
		buf = binary.LittleEndian.AppendUint64(buf, v.bits)
	case KindString:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.str)))
		buf = append(buf, v.str...)
	}
	return buf
}

// DecodeValue decodes one value from b, returning it and the bytes consumed.
func DecodeValue(b []byte) (Value, int, error) {
	if len(b) < 1 {
		return Value{}, 0, ErrCorrupt
	}
	kind := Kind(b[0])
	switch kind {
	case KindNull:
		return Value{}, 1, nil
	case KindInt, KindFloat:
		if len(b) < 9 {
			return Value{}, 0, ErrCorrupt
		}
		return Value{kind: kind, bits: binary.LittleEndian.Uint64(b[1:9])}, 9, nil
	case KindString:
		if len(b) < 5 {
			return Value{}, 0, ErrCorrupt
		}
		n := int(binary.LittleEndian.Uint32(b[1:5]))
		if n > maxStringLen || len(b) < 5+n {
			return Value{}, 0, ErrCorrupt
		}
		return Value{kind: KindString, str: string(b[5 : 5+n])}, 5 + n, nil
	default:
		return Value{}, 0, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
}

// AppendTuple appends the encoding of t to buf and returns the extended buf.
func AppendTuple(buf []byte, t Tuple) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(t)))
	for _, v := range t {
		buf = AppendValue(buf, v)
	}
	return buf
}

// DecodeTuple decodes one tuple from b, returning it and the bytes consumed.
// A column count larger than the bytes left (every value takes at least
// one) fails before the tuple is allocated.
func DecodeTuple(b []byte) (Tuple, int, error) {
	if len(b) < 2 {
		return nil, 0, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint16(b))
	off := 2
	if n > len(b[off:]) {
		return nil, 0, ErrCorrupt
	}
	t := make(Tuple, 0, n)
	for i := 0; i < n; i++ {
		v, sz, err := DecodeValue(b[off:])
		if err != nil {
			return nil, 0, err
		}
		t = append(t, v)
		off += sz
	}
	return t, off, nil
}
