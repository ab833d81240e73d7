package wire

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"pacman/internal/proc"
	"pacman/internal/tuple"
)

// allocBytes returns the fewest bytes fn allocated over three calls
// (allocations by other goroutines only add, so the minimum is the closest
// to fn's own).
func allocBytes(fn func()) uint64 {
	var least uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; i == 0 || d < least {
			least = d
		}
	}
	return least
}

// TestDecodersBoundAllocationByInput: a count prefix read from a socket is
// checked against the bytes that follow it before anything is allocated for
// it, so a tiny payload claiming 65535 entries fails cheaply.
func TestDecodersBoundAllocationByInput(t *testing.T) {
	// Proc id 0, then 65535 parameters of which the first claims 65535
	// values: 8 bytes in all.
	submit := []byte{0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}
	helloAck := []byte{1, 0, 64, 0, 0, 0, 0xFF, 0xFF}
	cases := []struct {
		name   string
		decode func() error
	}{
		{"ParseSubmit", func() error { _, _, _, err := ParseSubmit(submit, 0); return err }},
		{"ParseHelloAck", func() error { _, _, _, err := ParseHelloAck(helloAck); return err }},
		{"DecodeTuple", func() error { _, _, err := tuple.DecodeTuple([]byte{0xFF, 0xFF, 0}); return err }},
	}
	for _, tc := range cases {
		if err := tc.decode(); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
		if n := allocBytes(func() { _ = tc.decode() }); n >= 4<<10 {
			t.Errorf("%s: allocated %d bytes on a payload of a few bytes, want < 4 KiB", tc.name, n)
		}
	}
}

// FuzzParseSubmit checks the Submit decoder on any payload, with and
// without FlagDeadline: it never panics; what it accepts re-encodes byte
// for byte; and it allocates no more than a constant factor of the input.
func FuzzParseSubmit(f *testing.F) {
	args := proc.Args{proc.A(tuple.I(42)), proc.A(tuple.F(3.5)), proc.A(tuple.S("x"))}
	f.Add(AppendSubmit(nil, 7, args), false)
	f.Add(AppendSubmit(nil, 3, proc.Args{proc.A(tuple.I(1))}), false)
	f.Add(AppendSubmit(nil, 9999, proc.Args{}), false)
	f.Add(AppendSubmitDeadline(nil, 7, 250*time.Millisecond, proc.Args{proc.A(tuple.I(42))}), true)
	f.Add(AppendSubmitDeadline(nil, 7, 250*time.Millisecond, args), true)
	f.Add([]byte{0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}, false)
	f.Fuzz(func(t *testing.T, p []byte, deadline bool) {
		var flags uint8
		if deadline {
			flags = FlagDeadline
		}
		id, timeout, got, err := ParseSubmit(p, flags)
		if err == nil {
			var enc []byte
			if deadline {
				enc = AppendSubmitDeadline(nil, id, timeout, got)
			} else {
				enc = AppendSubmit(nil, id, got)
			}
			if !bytes.Equal(enc, p) {
				t.Fatalf("re-encoding the decoded submit gives %x, want %x", enc, p)
			}
		}
		// A decoded value costs at most a 32-byte tuple.Value per input
		// byte plus its string bytes, a parameter a 24-byte slice header
		// per 2 input bytes; the constant covers the error path.
		if n := allocBytes(func() { ParseSubmit(p, flags) }); n > 64*uint64(len(p))+4096 {
			t.Fatalf("a %d-byte payload allocated %d bytes", len(p), n)
		}
	})
}
