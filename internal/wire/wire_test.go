package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"pacman/internal/frontend"
	"pacman/internal/proc"
	"pacman/internal/tuple"
	"pacman/internal/wal"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Type: FrameSubmit, Flags: FlagAdHoc, Code: CodeAborted, Len: 12345, ReqID: 0xdeadbeefcafe}
	buf := AppendHeader(nil, h)
	if len(buf) != HeaderSize {
		t.Fatalf("header size %d, want %d", len(buf), HeaderSize)
	}
	if got := ParseHeader(buf); got != h {
		t.Fatalf("round trip: got %+v, want %+v", got, h)
	}
}

func TestHelloCodec(t *testing.T) {
	p := AppendHello(nil, 1, 3)
	minV, maxV, err := ParseHello(p)
	if err != nil || minV != 1 || maxV != 3 {
		t.Fatalf("round trip: %d %d %v", minV, maxV, err)
	}

	cases := []struct {
		name string
		p    []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"truncated", AppendHello(nil, 1, 1)[:5], ErrTruncated},
		{"bad magic", append([]byte{0, 0, 0, 0}, AppendHello(nil, 1, 1)[4:]...), ErrBadMagic},
		{"inverted range", AppendHello(nil, 3, 1), ErrBadFrame},
		{"garbage", []byte("\x00\x01\x02\x03\x04\x05\x06\x07"), ErrBadMagic},
	}
	for _, tc := range cases {
		if _, _, err := ParseHello(tc.p); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestHelloAckCodec(t *testing.T) {
	procs := []string{"Transfer", "Deposit", "TortureStamp"}
	p := AppendHelloAck(nil, V1, 64, procs)
	ver, win, got, err := ParseHelloAck(p)
	if err != nil || ver != V1 || win != 64 {
		t.Fatalf("round trip: %d %d %v", ver, win, err)
	}
	if len(got) != len(procs) || got[0] != "Transfer" || got[2] != "TortureStamp" {
		t.Fatalf("procs: %v", got)
	}
	// Every strict prefix must fail cleanly, never panic or fabricate.
	for cut := 0; cut < len(p); cut++ {
		if _, _, _, err := ParseHelloAck(p[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(p))
		}
	}
}

func TestSubmitCodec(t *testing.T) {
	args := proc.Args{proc.A(tuple.I(42)), proc.A(tuple.F(3.5)), proc.A(tuple.S("x"))}
	p := AppendSubmit(nil, 7, args)
	id, timeout, got, err := ParseSubmit(p, 0)
	if err != nil || id != 7 || timeout != 0 {
		t.Fatalf("round trip: id %d timeout %v err %v", id, timeout, err)
	}
	if len(got) != 3 || got[0][0].Int() != 42 || got[2][0].Str() != "x" {
		t.Fatalf("args: %v", got)
	}

	cases := []struct {
		name string
		p    []byte
	}{
		{"empty", nil},
		{"only proc id", p[:4]},
		{"truncated args", p[:len(p)-1]},
		{"trailing garbage", append(append([]byte(nil), p...), 0xff)},
		{"garbage args", append(append([]byte(nil), p[:4]...), 0xff, 0xff, 0xff)},
	}
	for _, tc := range cases {
		if _, _, _, err := ParseSubmit(tc.p, 0); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}

func TestSubmitDeadlineCodec(t *testing.T) {
	args := proc.Args{proc.A(tuple.I(42))}
	p := AppendSubmitDeadline(nil, 7, 250*time.Millisecond, args)
	id, timeout, got, err := ParseSubmit(p, FlagDeadline)
	if err != nil || id != 7 || timeout != 250*time.Millisecond {
		t.Fatalf("round trip: id %d timeout %v err %v", id, timeout, err)
	}
	if len(got) != 1 || got[0][0].Int() != 42 {
		t.Fatalf("args: %v", got)
	}
	// Without the flag, the 8 timeout bytes must NOT silently reparse as
	// arguments or trailing garbage must be caught.
	if _, _, _, err := ParseSubmit(p, 0); err == nil {
		t.Fatalf("deadline payload without FlagDeadline decoded without error")
	}
	// Every strict prefix must fail cleanly under the flag.
	for cut := 0; cut < len(p); cut++ {
		if _, _, _, err := ParseSubmit(p[:cut], FlagDeadline); err == nil {
			t.Errorf("prefix of %d/%d bytes decoded without error", cut, len(p))
		}
	}
}

func TestResultCodec(t *testing.T) {
	ts, msg, err := ParseResult(CodeOK, AppendResultOK(nil, 0x123456789))
	if err != nil || ts != 0x123456789 || msg != "" {
		t.Fatalf("ok result: %x %q %v", ts, msg, err)
	}
	if _, _, err := ParseResult(CodeOK, []byte{1, 2}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short ok result: %v", err)
	}
	_, msg, err = ParseResult(CodeAborted, AppendResultErr(nil, "boom"))
	if err != nil || msg != "boom" {
		t.Fatalf("err result: %q %v", msg, err)
	}
	if _, msg, err := ParseResult(CodeInternal, nil); err != nil || msg != "" {
		t.Fatalf("empty message must be legal: %q %v", msg, err)
	}
	if _, _, err := ParseResult(CodeInternal, []byte{9, 0, 'x'}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated message: %v", err)
	}
}

func TestReadFrameLimits(t *testing.T) {
	// Oversized length prefix is rejected before any allocation.
	h := Header{Type: FrameSubmit, Len: MaxPayload + 1}
	var buf bytes.Buffer
	buf.Write(AppendHeader(nil, h))
	if _, _, err := ReadFrame(&buf, nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized: %v", err)
	}

	// A stream that ends mid-payload reports unexpected EOF, not garbage.
	buf.Reset()
	if err := WriteFrame(&buf, Header{Type: FrameResult}, AppendResultOK(nil, 1)); err != nil {
		t.Fatal(err)
	}
	trunc := bytes.NewReader(buf.Bytes()[:buf.Len()-3])
	if _, _, err := ReadFrame(trunc, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated stream: %v", err)
	}

	// WriteFrame refuses oversized payloads symmetrically.
	if err := WriteFrame(io.Discard, Header{}, make([]byte, MaxPayload+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write: %v", err)
	}
}

func TestWriteReadFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := AppendSubmit(nil, 3, proc.Args{proc.A(tuple.I(1))})
	if err := WriteFrame(&buf, Header{Type: FrameSubmit, ReqID: 99}, payload); err != nil {
		t.Fatal(err)
	}
	h, p, err := ReadFrame(&buf, make([]byte, 4)) // undersized reuse buffer grows
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != FrameSubmit || h.ReqID != 99 || int(h.Len) != len(payload) {
		t.Fatalf("header: %+v", h)
	}
	if !bytes.Equal(p, payload) {
		t.Fatalf("payload mismatch")
	}
}

func TestNegotiateVersion(t *testing.T) {
	if v, err := NegotiateVersion(1, 5); err != nil || v != V1 {
		t.Fatalf("overlap: %d %v", v, err)
	}
	if _, err := NegotiateVersion(2, 9); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("future-only client: %v", err)
	}
}

// TestStatusErrorMapping pins the contract that makes network outcome
// classification transport-agnostic: server-side ErrorCode and client-side
// CodeError are inverses through the engine sentinels.
func TestStatusErrorMapping(t *testing.T) {
	cases := []struct {
		in       error
		code     uint16
		sentinel error
	}{
		{proc.ErrAborted, CodeAborted, proc.ErrAborted},
		{wal.ErrCrashed, CodeCrashed, wal.ErrCrashed},
		{wal.ErrClosed, CodeClosed, wal.ErrClosed},
		{frontend.ErrClosed, CodeRejected, frontend.ErrClosed},
		{errors.New("surprise"), CodeInternal, nil},
	}
	for _, tc := range cases {
		code, msg := ErrorCode(tc.in)
		if code != tc.code {
			t.Errorf("ErrorCode(%v) = %s, want %s", tc.in, CodeName(code), CodeName(tc.code))
		}
		back := CodeError(code, msg)
		if tc.sentinel != nil && !errors.Is(back, tc.sentinel) {
			t.Errorf("CodeError(%s) does not unwrap to %v", CodeName(code), tc.sentinel)
		}
	}
	if CodeError(CodeOK, "") != nil {
		t.Error("CodeError(CodeOK) must be nil")
	}
	if !errors.Is(CodeError(CodeDraining, ""), ErrDraining) {
		t.Error("CodeDraining must unwrap to ErrDraining")
	}
	if !strings.Contains(CodeError(CodeBackpressure, "q full").Error(), "CodeBackpressure") {
		t.Error("StatusError must render its code name")
	}
}
