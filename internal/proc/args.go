package proc

import (
	"encoding/binary"
	"fmt"

	"pacman/internal/tuple"
)

// Argument encoding: the payload of a command log entry. Format:
// 2-byte param count, then per parameter a 2-byte value count followed by
// the values in the tuple codec.

// AppendArgs appends the encoding of args to buf.
func AppendArgs(buf []byte, args Args) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(args)))
	for _, lst := range args {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(lst)))
		for _, v := range lst {
			buf = tuple.AppendValue(buf, v)
		}
	}
	return buf
}

// DecodeArgs decodes one Args from b, returning the bytes consumed. The
// counts come from untrusted bytes, so each is checked against what the
// bytes left can hold (2 per parameter, 1 per value) before anything is
// allocated for it.
func DecodeArgs(b []byte) (Args, int, error) {
	if len(b) < 2 {
		return nil, 0, tuple.ErrCorrupt
	}
	np := int(binary.LittleEndian.Uint16(b))
	off := 2
	if np > len(b[off:])/2 {
		return nil, 0, tuple.ErrCorrupt
	}
	args := make(Args, np)
	for p := 0; p < np; p++ {
		if len(b[off:]) < 2 {
			return nil, 0, tuple.ErrCorrupt
		}
		nv := int(binary.LittleEndian.Uint16(b[off:]))
		off += 2
		if nv > len(b[off:]) {
			return nil, 0, tuple.ErrCorrupt
		}
		lst := make([]tuple.Value, nv)
		for i := 0; i < nv; i++ {
			v, n, err := tuple.DecodeValue(b[off:])
			if err != nil {
				return nil, 0, err
			}
			lst[i] = v
			off += n
		}
		args[p] = lst
	}
	return args, off, nil
}

// FormatOp renders one operation for dependency-graph dumps.
func (c *Compiled) FormatOp(id int) string {
	op := c.ops[id]
	return fmt.Sprintf("op%d:%s(%s)", op.ID, op.Kind, op.Table)
}
