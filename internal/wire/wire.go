// Package wire is pacmand's wire protocol: a compact length-prefixed
// binary frame format for submitting stored-procedure invocations to a
// pacman instance over TCP or unix sockets, plus the server that speaks it
// (see Server).
//
// The protocol is spec-first: docs/PROTOCOL.md is the normative reference
// for the frame layout, version negotiation, status codes, and the
// pipelining/backpressure semantics, and TestDocsProtocolDrift fails the
// build when the constants below diverge from the tables in that document.
//
// The shape in one paragraph: every frame is a fixed 16-byte header
// (type, flags, status code, payload length, request id) followed by a
// payload. A connection opens with Hello/HelloAck version negotiation; the
// ack carries the server's procedure table (names in procedure-ID order)
// and the per-connection in-flight window. After that the client pipelines
// Submit frames — many in flight, each tagged with a client-chosen request
// id — and the server answers with Result frames in WHATEVER ORDER the
// durable-commit futures resolve, echoing the request id. A full admission
// queue surfaces as a Backpressure frame (the request was never executed;
// the client retries), and a draining server announces GoAway and rejects
// new work with CodeDraining instead of dropping the connection.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"pacman/internal/frontend"
	"pacman/internal/proc"
	"pacman/internal/txn"
	"pacman/internal/wal"
)

// Protocol constants. docs/PROTOCOL.md is the normative spec; the doc-drift
// test asserts these values match its tables.
const (
	// Magic opens every Hello payload: "PAC1" little-endian.
	Magic uint32 = 0x31434150
	// V1 is the only protocol version so far.
	V1 uint16 = 1
	// HeaderSize is the fixed frame-header length in bytes.
	HeaderSize = 16
	// MaxPayload bounds a frame payload; larger length prefixes are a
	// protocol error (and protect the reader from hostile allocations).
	MaxPayload = 1 << 20
	// DefaultWindow is the per-connection in-flight grant servers hand out
	// when the config does not override it.
	DefaultWindow = 64
)

// Frame types.
const (
	FrameHello        uint8 = 1 // client → server: magic + supported version range
	FrameHelloAck     uint8 = 2 // server → client: chosen version, window, proc table
	FrameSubmit       uint8 = 3 // client → server: proc id + encoded args
	FrameResult       uint8 = 4 // server → client: status code (+ TS or message)
	FrameBackpressure uint8 = 5 // server → client: admission queue full, retry
	FrameGoAway       uint8 = 6 // server → client: draining, stop submitting
	FramePing         uint8 = 7 // either direction: liveness probe
	FramePong         uint8 = 8 // answer to Ping, request id echoed
	// FramePrepare and FrameDecide carry the two phases of a cross-shard
	// commit from a shard router to a participant shard. Both share the
	// Submit payload layout (proc id + encoded args) and are answered with
	// Result frames; the participant executes them as distributed
	// transactions (value logging even under command logging). A Prepare's
	// CodeOK Result means the piece's effects are durable at the
	// participant's pepoch — the coordinator's commit decision may only
	// follow those acks (see docs/ARCHITECTURE.md).
	FramePrepare uint8 = 9  // router → shard: durable prepare piece
	FrameDecide  uint8 = 10 // router → shard: commit-apply or abort-release piece
)

// Flags.
const (
	// FlagAdHoc marks a Submit as an ad-hoc transaction (tuple-level
	// logging even under command logging).
	FlagAdHoc uint8 = 1 << 0
	// FlagDeadline marks a Submit/Prepare/Decide payload as carrying a
	// per-request timeout: 8 extra bytes (relative nanoseconds, LE)
	// between the procedure id and the arguments. The timeout is relative
	// so clock skew between client and server cannot expire a request in
	// transit; the server anchors it to its own clock on receipt.
	FlagDeadline uint8 = 1 << 1
)

// Status codes carried in Result (and Backpressure/GoAway) frames.
const (
	CodeOK           uint16 = 0  // executed and durable; payload is the commit TS
	CodeUnknownProc  uint16 = 1  // proc id outside the server's table; never executed
	CodeAborted      uint16 = 2  // procedure aborted (rolled back); no effects
	CodeCrashed      uint16 = 3  // executed, crash beat durability; outcome after recovery unknown
	CodeClosed       uint16 = 4  // executed, instance closed before release
	CodeRejected     uint16 = 5  // frontend closed before execution; never executed
	CodeBackpressure uint16 = 6  // admission queue full; never executed, retry
	CodeDraining     uint16 = 7  // server draining; never executed, reconnect
	CodeBadVersion   uint16 = 8  // no version overlap in Hello
	CodeBadFrame     uint16 = 9  // malformed frame or handshake violation
	CodeInternal     uint16 = 10 // unexpected server-side failure
	// CodeDeadlineExceeded: the request's deadline passed before its commit
	// became durable. Execution state is unknown — the request may have been
	// shed before execution, or executed with durability still in flight.
	CodeDeadlineExceeded uint16 = 11
)

// frameNames and codeNames drive String rendering AND the doc-drift test:
// every entry must appear, with the same value, in docs/PROTOCOL.md.
var frameNames = map[uint8]string{
	FrameHello:        "FrameHello",
	FrameHelloAck:     "FrameHelloAck",
	FrameSubmit:       "FrameSubmit",
	FrameResult:       "FrameResult",
	FrameBackpressure: "FrameBackpressure",
	FrameGoAway:       "FrameGoAway",
	FramePing:         "FramePing",
	FramePong:         "FramePong",
	FramePrepare:      "FramePrepare",
	FrameDecide:       "FrameDecide",
}

var codeNames = map[uint16]string{
	CodeOK:           "CodeOK",
	CodeUnknownProc:  "CodeUnknownProc",
	CodeAborted:      "CodeAborted",
	CodeCrashed:      "CodeCrashed",
	CodeClosed:       "CodeClosed",
	CodeRejected:     "CodeRejected",
	CodeBackpressure: "CodeBackpressure",
	CodeDraining:     "CodeDraining",
	CodeBadVersion:   "CodeBadVersion",
	CodeBadFrame:     "CodeBadFrame",
	CodeInternal:     "CodeInternal",

	CodeDeadlineExceeded: "CodeDeadlineExceeded",
}

// FrameName renders a frame type for diagnostics.
func FrameName(t uint8) string {
	if n, ok := frameNames[t]; ok {
		return n
	}
	return fmt.Sprintf("Frame(%d)", t)
}

// CodeName renders a status code for diagnostics.
func CodeName(c uint16) string {
	if n, ok := codeNames[c]; ok {
		return n
	}
	return fmt.Sprintf("Code(%d)", c)
}

// Codec errors.
var (
	// ErrTruncated means a payload ended before its encoding did.
	ErrTruncated = errors.New("wire: truncated payload")
	// ErrFrameTooLarge means a header announced a payload above MaxPayload.
	ErrFrameTooLarge = errors.New("wire: frame payload exceeds MaxPayload")
	// ErrBadMagic means a Hello payload did not open with Magic.
	ErrBadMagic = errors.New("wire: bad magic in hello")
	// ErrVersionMismatch means version negotiation found no overlap.
	ErrVersionMismatch = errors.New("wire: no protocol version overlap")
	// ErrBadFrame means a frame type was invalid in the connection's state.
	ErrBadFrame = errors.New("wire: unexpected frame")
)

// Header is the fixed 16-byte prefix of every frame. All integers on the
// wire are little-endian, matching the engine's log codecs.
type Header struct {
	Type  uint8  // frame type (Frame*)
	Flags uint8  // frame flags (Flag*)
	Code  uint16 // status code (Code*); zero outside result-bearing frames
	Len   uint32 // payload length, set by WriteFrame
	ReqID uint64 // request id chosen by the submitter, echoed in responses
}

// AppendHeader appends h to buf (h.Len must already be set).
func AppendHeader(buf []byte, h Header) []byte {
	buf = append(buf, h.Type, h.Flags)
	buf = binary.LittleEndian.AppendUint16(buf, h.Code)
	buf = binary.LittleEndian.AppendUint32(buf, h.Len)
	buf = binary.LittleEndian.AppendUint64(buf, h.ReqID)
	return buf
}

// ParseHeader decodes one header from the first HeaderSize bytes of b.
func ParseHeader(b []byte) Header {
	return Header{
		Type:  b[0],
		Flags: b[1],
		Code:  binary.LittleEndian.Uint16(b[2:4]),
		Len:   binary.LittleEndian.Uint32(b[4:8]),
		ReqID: binary.LittleEndian.Uint64(b[8:16]),
	}
}

// WriteFrame writes one frame (header + payload) to w, setting h.Len from
// the payload. It refuses payloads above MaxPayload.
func WriteFrame(w io.Writer, h Header, payload []byte) error {
	if len(payload) > MaxPayload {
		return ErrFrameTooLarge
	}
	h.Len = uint32(len(payload))
	buf := make([]byte, 0, HeaderSize+len(payload))
	buf = AppendHeader(buf, h)
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame from r, reusing buf for the payload when it is
// large enough. It returns the header and the payload (aliasing buf's
// backing array when reused — consume it before the next ReadFrame).
func ReadFrame(r io.Reader, buf []byte) (Header, []byte, error) {
	var hb [HeaderSize]byte
	if _, err := io.ReadFull(r, hb[:]); err != nil {
		return Header{}, nil, err
	}
	h := ParseHeader(hb[:])
	if h.Len > MaxPayload {
		return h, nil, fmt.Errorf("%w: %d bytes in %s", ErrFrameTooLarge, h.Len, FrameName(h.Type))
	}
	if int(h.Len) > cap(buf) {
		buf = make([]byte, h.Len)
	}
	buf = buf[:h.Len]
	if _, err := io.ReadFull(r, buf); err != nil {
		return h, nil, err
	}
	return h, buf, nil
}

// AppendHello appends a Hello payload: magic + supported version range.
func AppendHello(buf []byte, minVer, maxVer uint16) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, Magic)
	buf = binary.LittleEndian.AppendUint16(buf, minVer)
	buf = binary.LittleEndian.AppendUint16(buf, maxVer)
	return buf
}

// ParseHello decodes a Hello payload.
func ParseHello(p []byte) (minVer, maxVer uint16, err error) {
	if len(p) < 8 {
		return 0, 0, ErrTruncated
	}
	if binary.LittleEndian.Uint32(p) != Magic {
		return 0, 0, ErrBadMagic
	}
	minVer = binary.LittleEndian.Uint16(p[4:6])
	maxVer = binary.LittleEndian.Uint16(p[6:8])
	if minVer > maxVer {
		return 0, 0, fmt.Errorf("%w: min %d > max %d", ErrBadFrame, minVer, maxVer)
	}
	return minVer, maxVer, nil
}

// NegotiateVersion picks the highest mutually supported version, or
// ErrVersionMismatch. The server currently speaks only V1.
func NegotiateVersion(minVer, maxVer uint16) (uint16, error) {
	if minVer <= V1 && V1 <= maxVer {
		return V1, nil
	}
	return 0, fmt.Errorf("%w: client offers [%d,%d], server speaks %d", ErrVersionMismatch, minVer, maxVer, V1)
}

// AppendHelloAck appends a HelloAck payload: the negotiated version, the
// per-connection in-flight window grant, and the procedure table — names in
// procedure-ID order, so Submit frames can carry a 4-byte id instead of a
// name.
func AppendHelloAck(buf []byte, version uint16, window uint32, procs []string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, version)
	buf = binary.LittleEndian.AppendUint32(buf, window)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(procs)))
	for _, name := range procs {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
		buf = append(buf, name...)
	}
	return buf
}

// ParseHelloAck decodes a HelloAck payload. A procedure count larger than
// the bytes left (every name takes at least its 2-byte length) fails before
// the table is allocated.
func ParseHelloAck(p []byte) (version uint16, window uint32, procs []string, err error) {
	if len(p) < 8 {
		return 0, 0, nil, ErrTruncated
	}
	version = binary.LittleEndian.Uint16(p)
	window = binary.LittleEndian.Uint32(p[2:6])
	n := int(binary.LittleEndian.Uint16(p[6:8]))
	off := 8
	if n > len(p[off:])/2 {
		return 0, 0, nil, ErrTruncated
	}
	procs = make([]string, 0, n)
	for i := 0; i < n; i++ {
		if len(p[off:]) < 2 {
			return 0, 0, nil, ErrTruncated
		}
		l := int(binary.LittleEndian.Uint16(p[off:]))
		off += 2
		if len(p[off:]) < l {
			return 0, 0, nil, ErrTruncated
		}
		procs = append(procs, string(p[off:off+l]))
		off += l
	}
	return version, window, procs, nil
}

// AppendSubmit appends a Submit payload: the procedure id followed by the
// invocation arguments in the engine's own argument codec (the exact bytes
// a command-log entry carries).
func AppendSubmit(buf []byte, procID uint32, args proc.Args) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, procID)
	return proc.AppendArgs(buf, args)
}

// AppendSubmitDeadline appends a Submit payload carrying a per-request
// timeout: procedure id, then the relative timeout in nanoseconds, then the
// arguments. The frame's header must set FlagDeadline so the receiver knows
// the extra field is present.
func AppendSubmitDeadline(buf []byte, procID uint32, timeout time.Duration, args proc.Args) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, procID)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(timeout))
	return proc.AppendArgs(buf, args)
}

// ParseSubmit decodes a Submit payload under the frame's flags. When
// FlagDeadline is set the payload carries a relative timeout (nanoseconds)
// between the procedure id and the arguments; timeout is zero otherwise.
func ParseSubmit(p []byte, flags uint8) (procID uint32, timeout time.Duration, args proc.Args, err error) {
	if len(p) < 4 {
		return 0, 0, nil, ErrTruncated
	}
	procID = binary.LittleEndian.Uint32(p)
	off := 4
	if flags&FlagDeadline != 0 {
		if len(p) < off+8 {
			return 0, 0, nil, ErrTruncated
		}
		timeout = time.Duration(binary.LittleEndian.Uint64(p[off:]))
		off += 8
	}
	args, n, err := proc.DecodeArgs(p[off:])
	if err != nil {
		return 0, 0, nil, fmt.Errorf("wire: submit args: %w", err)
	}
	if off+n != len(p) {
		return 0, 0, nil, fmt.Errorf("%w: %d trailing bytes after args", ErrBadFrame, len(p)-off-n)
	}
	return procID, timeout, args, nil
}

// AppendResultOK appends the payload of a CodeOK Result: the commit TS.
func AppendResultOK(buf []byte, ts uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, ts)
}

// AppendResultErr appends the payload of a non-OK Result: a short message.
func AppendResultErr(buf []byte, msg string) []byte {
	if len(msg) > 1<<12 {
		msg = msg[:1<<12]
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(msg)))
	return append(buf, msg...)
}

// ParseResult decodes a Result payload according to its status code: the
// commit TS for CodeOK, a diagnostic message otherwise.
func ParseResult(code uint16, p []byte) (ts uint64, msg string, err error) {
	if code == CodeOK {
		if len(p) < 8 {
			return 0, "", ErrTruncated
		}
		return binary.LittleEndian.Uint64(p), "", nil
	}
	if len(p) == 0 {
		return 0, "", nil // message is optional
	}
	if len(p) < 2 {
		return 0, "", ErrTruncated
	}
	l := int(binary.LittleEndian.Uint16(p))
	if len(p[2:]) < l {
		return 0, "", ErrTruncated
	}
	return 0, string(p[2 : 2+l]), nil
}

// StatusError is the client-side rendering of a non-OK Result. It unwraps
// to the engine sentinel matching its code, so errors.Is classification
// (ErrCrashed vs ErrAborted vs rejected-before-execution) works across the
// network exactly as it does in-process.
type StatusError struct {
	Code uint16
	Msg  string
	// Attempts is how many times the client tried this call before giving
	// up (zero when the first attempt produced the result). Retries happen
	// on Backpressure sheds; the count makes "the server shed me N times"
	// diagnosable from the error alone.
	Attempts int
}

// Error renders the code name, the server's message, and the retry count.
func (e *StatusError) Error() string {
	s := fmt.Sprintf("wire: %s", CodeName(e.Code))
	if e.Msg != "" {
		s += ": " + e.Msg
	}
	if e.Attempts > 0 {
		s += fmt.Sprintf(" (after %d attempts)", e.Attempts)
	}
	return s
}

// Sentinels for codes with no in-process equivalent.
var (
	// ErrUnknownProc means the submitted proc id is outside the server's
	// procedure table.
	ErrUnknownProc = errors.New("wire: unknown procedure")
	// ErrDraining means the server rejected the submission because it is
	// draining; the request was never executed.
	ErrDraining = errors.New("wire: server draining")
	// ErrBackpressure means the server shed the request at admission (full
	// queue or brownout) and the client's retry budget ran out; the request
	// was never executed.
	ErrBackpressure = errors.New("wire: backpressure, retry budget exhausted")
)

// Unwrap maps the status code onto the matching engine sentinel so that
// errors.Is(err, pacman.ErrCrashed) (and friends) hold over the network.
func (e *StatusError) Unwrap() error {
	switch e.Code {
	case CodeUnknownProc:
		return ErrUnknownProc
	case CodeAborted:
		return proc.ErrAborted
	case CodeCrashed:
		return wal.ErrCrashed
	case CodeClosed:
		return wal.ErrClosed
	case CodeRejected:
		return frontend.ErrClosed
	case CodeBackpressure:
		return ErrBackpressure
	case CodeDraining:
		return ErrDraining
	case CodeBadVersion:
		return ErrVersionMismatch
	case CodeBadFrame:
		return ErrBadFrame
	case CodeDeadlineExceeded:
		return txn.ErrDeadlineExceeded
	}
	return nil
}

// CodeError builds the error a client resolves a future with for a non-OK
// Result (nil for CodeOK).
func CodeError(code uint16, msg string) error {
	if code == CodeOK {
		return nil
	}
	return &StatusError{Code: code, Msg: msg}
}

// ErrorCode classifies a future's terminal error into the status code a
// Result frame carries back (the server-side inverse of CodeError).
func ErrorCode(err error) (uint16, string) {
	switch {
	case err == nil:
		return CodeOK, ""
	case errors.Is(err, proc.ErrAborted):
		return CodeAborted, err.Error()
	case errors.Is(err, wal.ErrCrashed):
		return CodeCrashed, err.Error()
	case errors.Is(err, wal.ErrClosed):
		return CodeClosed, err.Error()
	case errors.Is(err, txn.ErrDeadlineExceeded):
		return CodeDeadlineExceeded, err.Error()
	case errors.Is(err, frontend.ErrBrownout):
		return CodeBackpressure, err.Error()
	case errors.Is(err, ErrBackpressure):
		// Never-executed sheds that originated behind another wire hop (a
		// router's open circuit breaker wraps ErrBackpressure): keep the
		// retry-safe classification across the hop instead of collapsing to
		// CodeInternal's "maybe".
		return CodeBackpressure, err.Error()
	case errors.Is(err, frontend.ErrClosed):
		return CodeRejected, err.Error()
	default:
		return CodeInternal, err.Error()
	}
}
