// Package wire is stagedb's client/server protocol: length-prefixed frames
// over a byte stream, sized so one result frame carries exactly one pooled
// exchange page of rows. The server never re-batches results — each page the
// execute stage emits becomes one frame — and a streaming result is written
// a page at a time, so TCP backpressure from a slow client parks the
// producing pipeline through the page-recycle protocol instead of growing a
// server-side buffer. Frames are built in place in the sender's buffer
// (BeginFrame/EndFrame) and a materialized response — Columns, its Pages,
// Done — leaves in one Write.
//
// Frame layout (all integers big-endian unless varint):
//
//	u32  length      // of everything after this field
//	u8   type        // Msg* constant
//	...  payload     // type-specific, varint/length-delimited fields
//
// A conversation:
//
//	C->S  Hello{proto, tenant}
//	S->C  HelloOK{proto}            // or Done{code} on admission rejection
//	C->S  Query{flags, deadline, sql, args}
//	S->C  Columns{names}            // SELECT only
//	S->C  Page{rows}...             // one frame per exchange page
//	S->C  Done{affected, code, msg} // always terminal, even after error
//	C->S  Cancel                    // optional, between any frames
//	C->S  Quit
//
// Row payloads use the spill package's varint-tagged value codec, shared
// byte-for-byte with the external-sort run files.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"stagedb/internal/exec/spill"
	"stagedb/internal/value"
)

// Proto is the protocol version exchanged in Hello/HelloOK. A server refuses
// a mismatched major version with ErrCodeProto.
const Proto = 1

// MaxFrame bounds a frame's length field. The server cuts every result page
// into Page frames of at most 64 rows, however large the exchange page it
// streams (up to 512 rows): a frame of small rows is a few KB, so 8 MiB
// leaves room for rows of about 128 KB while keeping a malicious length
// prefix from allocating unbounded memory.
const MaxFrame = 8 << 20

// Message types. Client-to-server types have the high bit clear,
// server-to-client types have it set.
const (
	MsgHello  = 0x01 // proto u32, tenant string
	MsgQuery  = 0x02 // flags u8, deadline-ms uvarint, sql string, args row
	MsgCancel = 0x03 // no payload: cancel the in-flight query
	MsgQuit   = 0x04 // no payload: orderly close

	MsgHelloOK = 0x81 // proto u32
	MsgColumns = 0x82 // count uvarint, names string...
	MsgPage    = 0x83 // count uvarint, rows in spill encoding
	MsgDone    = 0x84 // affected uvarint, code u8, msg string when code != 0
)

// Query flags.
const (
	// FlagQueryOnly rejects non-SELECT statements (the Query API contract);
	// without it the statement executes as Exec.
	FlagQueryOnly = 1 << 0
)

// ErrCode classifies a Done frame's failure for the client-side taxonomy
// mapping. Codes are stable wire contract; messages are advisory.
type ErrCode uint8

// Done error codes.
const (
	ErrCodeOK        ErrCode = 0 // success
	ErrCodeGeneric   ErrCode = 1 // query failed (syntax, schema, execution)
	ErrCodeTimeout   ErrCode = 2 // deadline expired
	ErrCodeCanceled  ErrCode = 3 // canceled by Cancel frame or disconnect
	ErrCodeAdmission ErrCode = 4 // shed by admission control; retryable
	ErrCodeDraining  ErrCode = 5 // server draining for shutdown; retryable
	ErrCodePanic     ErrCode = 6 // query panicked; session survived
	ErrCodeProto     ErrCode = 7 // protocol violation or version mismatch
	// ErrCodeSerialization reports a snapshot-isolation write-write conflict
	// (first-committer-wins); the transaction was rolled back and is safe to
	// retry.
	ErrCodeSerialization ErrCode = 8
)

// HeaderLen is the fixed prefix of every frame: the u32 length and the u8
// type.
const HeaderLen = 5

// ErrFrameTooLarge reports a frame whose type byte plus payload exceed
// MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")

// BeginFrame starts a frame of type typ at the end of dst: it reserves the
// header and returns the slice for a payload encoder (Query.Append,
// AppendPage, ...) to extend. EndFrame then patches the length in place, so
// any number of frames accumulate in one buffer with no copy and go out in
// one Write:
//
//	start := len(buf)
//	buf = wire.AppendPage(wire.BeginFrame(buf, wire.MsgPage), rows)
//	err := wire.EndFrame(buf, start)
//
//stagedb:hot
func BeginFrame(dst []byte, typ byte) []byte {
	return append(dst, 0, 0, 0, 0, typ)
}

// EndFrame completes the frame begun at dst[start], which must extend to the
// end of dst. On ErrFrameTooLarge the caller drops dst[start:].
//
//stagedb:hot
func EndFrame(dst []byte, start int) error {
	n := len(dst) - start - 4 // the length field counts the type byte and the payload
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return nil
}

// FrameEnd returns the end offset of the frame that contains byte n-1 of
// buf, a run of whole frames: n itself when a write that stopped after n
// bytes stopped between two frames, and otherwise how far it has to continue
// to leave the stream parseable.
func FrameEnd(buf []byte, n int) int {
	end := 0
	for end < n {
		end += 4 + int(binary.BigEndian.Uint32(buf[end:]))
	}
	return end
}

// WriteFrame writes one frame with a single Write. The payload must fit
// MaxFrame.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	buf := append(BeginFrame(make([]byte, 0, HeaderLen+len(payload)), typ), payload...)
	if err := EndFrame(buf, 0); err != nil {
		return err
	}
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame, enforcing MaxFrame before allocating.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 1 || n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame length %d out of range [1,%d]", n, MaxFrame)
	}
	typ = hdr[4]
	if n == 1 {
		return typ, nil, nil
	}
	payload = make([]byte, n-1)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}

// --- payload field helpers ---

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readUvarint(buf []byte) (uint64, []byte, error) {
	v, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return 0, nil, fmt.Errorf("wire: corrupt varint")
	}
	return v, buf[sz:], nil
}

func readString(buf []byte) (string, []byte, error) {
	n, rest, err := readUvarint(buf)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(rest)) < n {
		return "", nil, fmt.Errorf("wire: truncated string")
	}
	return string(rest[:n]), rest[n:], nil
}

// --- messages ---

// Hello opens a session: protocol version plus the tenant name the server's
// admission quotas key on ("" is the anonymous tenant).
type Hello struct {
	Proto  uint32
	Tenant string
}

// Append serializes the message payload onto dst.
func (h Hello) Append(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, h.Proto)
	return appendString(dst, h.Tenant)
}

// ParseHello decodes a MsgHello payload.
func ParseHello(buf []byte) (Hello, error) {
	if len(buf) < 4 {
		return Hello{}, fmt.Errorf("wire: short hello")
	}
	h := Hello{Proto: binary.BigEndian.Uint32(buf[:4])}
	var err error
	h.Tenant, _, err = readString(buf[4:])
	return h, err
}

// Query submits one statement. DeadlineMs, when nonzero, is a server-applied
// per-query deadline relative to receipt; the client derives it from its
// context so the deadline travels with the request. Args bind `?`
// placeholders, encoded as one spill-codec row.
type Query struct {
	Flags      uint8
	DeadlineMs uint64
	SQL        string
	Args       value.Row
}

// Append serializes the message payload onto dst.
func (q Query) Append(dst []byte) []byte {
	dst = append(dst, q.Flags)
	dst = binary.AppendUvarint(dst, q.DeadlineMs)
	dst = appendString(dst, q.SQL)
	return spill.AppendRow(dst, q.Args)
}

// ParseQuery decodes a MsgQuery payload.
func ParseQuery(buf []byte) (Query, error) {
	if len(buf) < 1 {
		return Query{}, fmt.Errorf("wire: short query")
	}
	q := Query{Flags: buf[0]}
	var err error
	q.DeadlineMs, buf, err = readUvarint(buf[1:])
	if err != nil {
		return Query{}, err
	}
	q.SQL, buf, err = readString(buf)
	if err != nil {
		return Query{}, err
	}
	args, _, err := spill.DecodeRow(buf)
	if err != nil {
		return Query{}, err
	}
	if len(args) > 0 {
		q.Args = args
	}
	return q, nil
}

// AppendHelloOK serializes a MsgHelloOK payload.
func AppendHelloOK(dst []byte, proto uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, proto)
}

// ParseHelloOK decodes a MsgHelloOK payload.
func ParseHelloOK(buf []byte) (uint32, error) {
	if len(buf) < 4 {
		return 0, fmt.Errorf("wire: short hello-ok")
	}
	return binary.BigEndian.Uint32(buf[:4]), nil
}

// AppendColumns serializes a MsgColumns payload.
func AppendColumns(dst []byte, names []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, n := range names {
		dst = appendString(dst, n)
	}
	return dst
}

// ParseColumns decodes a MsgColumns payload.
func ParseColumns(buf []byte) ([]string, error) {
	n, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: absurd column count %d", n)
	}
	names := make([]string, n)
	for i := range names {
		names[i], buf, err = readString(buf)
		if err != nil {
			return nil, err
		}
	}
	return names, nil
}

// AppendPage serializes a MsgPage payload: the rows of one exchange page.
func AppendPage(dst []byte, rows []value.Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for _, r := range rows {
		dst = spill.AppendRow(dst, r)
	}
	return dst
}

// ParsePage decodes a MsgPage payload.
func ParsePage(buf []byte) ([]value.Row, error) {
	n, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: absurd row count %d", n)
	}
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i], buf, err = spill.DecodeRow(buf)
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// Done terminates every query exchange: affected-row count on success, an
// error code plus advisory message on failure.
type Done struct {
	Affected int64
	Code     ErrCode
	Msg      string
}

// Append serializes the message payload onto dst.
func (d Done) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(d.Affected))
	dst = append(dst, byte(d.Code))
	if d.Code != ErrCodeOK {
		dst = appendString(dst, d.Msg)
	}
	return dst
}

// ParseDone decodes a MsgDone payload.
func ParseDone(buf []byte) (Done, error) {
	aff, buf, err := readUvarint(buf)
	if err != nil {
		return Done{}, err
	}
	if len(buf) < 1 {
		return Done{}, fmt.Errorf("wire: short done")
	}
	d := Done{Affected: int64(aff), Code: ErrCode(buf[0])}
	if d.Code != ErrCodeOK {
		d.Msg, _, err = readString(buf[1:])
		if err != nil {
			return Done{}, err
		}
	}
	return d, nil
}
