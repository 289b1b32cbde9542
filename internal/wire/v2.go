package wire

// Session framing: concurrent request multiplexing over one connection.
//
// After the handshake every frame carries a u32 request ID between the
// type byte and the body:
//
//	u32 len | u8 type | u32 reqID | body
//
// Responses echo the request ID of the frame they answer, so they may
// return in any order and N callers can pipeline over one TCP connection.
//
// # Handshake
//
// A dialer opens every connection with a bare-framed Hello carrying the
// highest protocol version it speaks and its capability bits; the server
// replies HelloResp with the negotiated version and its own capabilities,
// and both sides switch to numbered frames. This build speaks exactly
// ProtocolVersion: a server answers anything else — a first frame that is
// not a Hello, a malformed Hello, a maximum version below its own — with
// one typed error frame and closes, and a dialer treats any reply other
// than a HelloResp negotiating ProtocolVersion as a dial error.
//
// # Typed errors
//
// The MsgError body is a structured WireError{code, table, message} so
// clients can distinguish programmatically-actionable failures (unknown
// table, stale replica, unsupported request) without parsing prose.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ProtocolVersion is the one protocol version this build speaks; the Hello
// handshake carries it in both directions. It is raised whenever the
// bytes of a message change, so that a build from before the change is
// turned away at dial with CodeUnsupported instead of being sent bodies
// it would misparse: 6 is the generation in which a VO carries its
// envelope's node records and ordered in-node proofs instead of lifted
// D_S digests (package vo), and a tree's pages hold its in-node group
// digests — the same bytes no longer mean the same digests;
// 5 dropped the accumulator parameters from Snapshot and SchemaResponse
// (the accumulator is a constant, so no edge or relay chooses what a
// client verifies under); 4 made every insert travel as a MsgBatchReq (the single-insert
// frame is gone and the message types after it renumbered); 3 first
// carried a VO's digests as fixed-width runs (vo.VO.Encode); 2 put a
// length in front of each.
const ProtocolVersion = 6

// Capability bits carried in the Hello exchange (both directions). They
// are advisory: a peer that lacks a capability still answers the
// corresponding requests with a typed CodeUnsupported error, so callers
// that skip the check stay correct — the bits exist for diagnostics and
// topology introspection (is my upstream a serving peer?).
const (
	// CapPeerServe: this peer answers replication requests (snapshots,
	// deltas) from its own replicated state — it is a distribution-tier
	// edge, not just a query server.
	CapPeerServe uint32 = 1 << 0
)

// EncodeHelloCaps builds a Hello (or HelloResp) body carrying the
// sender's protocol version and capability bits.
func EncodeHelloCaps(maxVersion, caps uint32) []byte {
	out := appendU32(nil, maxVersion)
	return appendU32(out, caps)
}

// DecodeHelloCaps parses a Hello (or HelloResp) body: exactly a version
// word and a capability word.
func DecodeHelloCaps(body []byte) (version, caps uint32, err error) {
	r := &reader{data: body}
	version = r.u32("protocol version")
	caps = r.u32("capability bits")
	if err := r.done(); err != nil {
		return 0, 0, err
	}
	if version == 0 {
		return 0, 0, errors.New("wire: protocol version 0")
	}
	return version, caps, nil
}

// FrameHeaderSize is the length of a numbered frame's header.
const FrameHeaderSize = 4 + 1 + 4

// WriteFrameV2 writes one numbered frame: u32 len | u8 type | u32 reqID | body.
func WriteFrameV2(w io.Writer, t MsgType, reqID uint32, body []byte) error {
	var hdr [FrameHeaderSize]byte
	if err := putFrameHeader(hdr[:], t, reqID, len(body)); err != nil {
		return err
	}
	return writeTogether(w, hdr[:], body)
}

// WriteFramed writes a numbered frame whose body was built in place:
// frame is FrameHeaderSize bytes of room for the header followed by the
// body, and leaves in a single Write with no copy. A server hands its
// handlers such a buffer to append the response to.
func WriteFramed(w io.Writer, t MsgType, reqID uint32, frame []byte) error {
	if err := putFrameHeader(frame, t, reqID, len(frame)-FrameHeaderSize); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}

func putFrameHeader(hdr []byte, t MsgType, reqID uint32, bodyLen int) error {
	if bodyLen+5 > MaxFrameSize {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", bodyLen)
	}
	binary.BigEndian.PutUint32(hdr[0:4], uint32(bodyLen+5))
	hdr[4] = byte(t)
	binary.BigEndian.PutUint32(hdr[5:9], reqID)
	return nil
}

// ReadFrameV2 reads one numbered frame, returning its type, request ID and
// body. The body is a buffer allocated for this frame alone (see
// readBody), which is what lets the decoders of this package and of
// package vo return views of it: whoever receives the body owns it. That
// holds over a buffered r too — internal/rpc reads through a
// bufio.Reader so that a small frame costs one read of the connection:
// the body is copied out of r's buffer, and whatever does not fit there
// is read straight into the body.
func ReadFrameV2(r io.Reader) (MsgType, uint32, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 5 || n > MaxFrameSize {
		return 0, 0, nil, fmt.Errorf("wire: frame length %d out of range", n)
	}
	buf, err := readBody(r, int(n))
	if err != nil {
		return 0, 0, nil, err
	}
	return MsgType(buf[0]), binary.BigEndian.Uint32(buf[1:5]), buf[5:], nil
}

// ErrCode classifies a remote failure so clients can react without
// parsing message text.
type ErrCode uint16

const (
	// CodeInternal is an unclassified server-side failure.
	CodeInternal ErrCode = iota + 1
	// CodeBadRequest marks a malformed or unparsable request.
	CodeBadRequest
	// CodeUnknownTable means the named table is not registered (central)
	// or not replicated (edge).
	CodeUnknownTable
	// CodeStaleReplica means the replica's version/epoch has diverged from
	// the history the request assumed; the caller must resynchronize.
	CodeStaleReplica
	// CodeUnsupported means the server does not handle the message type.
	CodeUnsupported
	// CodeDuplicateKey means an insert collided with an existing primary
	// key (reported per-op inside batch responses).
	CodeDuplicateKey
	// CodeBehind means the serving peer's replicated state is no newer
	// than what the requester already holds (or descends from a different
	// epoch), so it has nothing useful to serve; the requester should
	// fail over to another source instead of spinning on empty deltas.
	CodeBehind
	// CodeDeltaGap means the serving peer is current but its relay cache
	// holds no delta covering the requester's version; the requester can
	// take a snapshot from this peer (catch-up) or fail over.
	CodeDeltaGap
	// CodeShardMoved means the request addressed a shard — by index on
	// the query path, by stable ID on the replication path — that an
	// online split/merge has since re-numbered or retired; the caller
	// should refetch the shard map (a newer epoch) and re-route.
	CodeShardMoved
)

func (c ErrCode) String() string {
	switch c {
	case CodeInternal:
		return "internal"
	case CodeBadRequest:
		return "bad-request"
	case CodeUnknownTable:
		return "unknown-table"
	case CodeStaleReplica:
		return "stale-replica"
	case CodeUnsupported:
		return "unsupported"
	case CodeDuplicateKey:
		return "duplicate-key"
	case CodeBehind:
		return "behind"
	case CodeDeltaGap:
		return "delta-gap"
	case CodeShardMoved:
		return "shard-moved"
	}
	return fmt.Sprintf("ErrCode(%d)", uint16(c))
}

// Sentinel errors matched by errors.Is against decoded WireErrors, so
// application code can branch on the failure class regardless of which
// server produced it or how its message reads.
var (
	ErrUnknownTable = errors.New("wire: unknown table")
	ErrStaleReplica = errors.New("wire: stale replica")
	ErrUnsupported  = errors.New("wire: unsupported request")
	ErrDuplicateKey = errors.New("wire: duplicate key")
	ErrBehind       = errors.New("wire: serving peer behind requester")
	ErrDeltaGap     = errors.New("wire: peer relay cache gap")
	ErrShardMoved   = errors.New("wire: shard re-partitioned")
)

// WireError is the typed error frame body. It implements
// error, so servers can return one directly from a dispatch handler and
// clients receive it intact across the wire.
type WireError struct {
	Code  ErrCode
	Table string // the table involved, when meaningful
	Msg   string
}

func (e *WireError) Error() string {
	if e.Msg != "" {
		return e.Msg
	}
	if e.Table != "" {
		return fmt.Sprintf("%s: %q", e.Code, e.Table)
	}
	return e.Code.String()
}

// Is maps error codes onto the package sentinels for errors.Is.
func (e *WireError) Is(target error) bool {
	switch target {
	case ErrUnknownTable:
		return e.Code == CodeUnknownTable
	case ErrStaleReplica:
		return e.Code == CodeStaleReplica
	case ErrUnsupported:
		return e.Code == CodeUnsupported
	case ErrDuplicateKey:
		return e.Code == CodeDuplicateKey
	case ErrBehind:
		return e.Code == CodeBehind
	case ErrDeltaGap:
		return e.Code == CodeDeltaGap
	case ErrShardMoved:
		return e.Code == CodeShardMoved
	}
	return false
}

// Encode serializes the error body.
func (e *WireError) Encode() []byte {
	out := appendU32(nil, uint32(e.Code))
	out = appendStr(out, e.Table)
	return appendStr(out, e.Msg)
}

// DecodeWireError parses an error frame body. Malformed bodies decode
// to CodeInternal with the raw bytes as the message, so a broken peer
// still yields a usable error instead of a decode failure.
func DecodeWireError(body []byte) *WireError {
	r := &reader{data: body}
	e := &WireError{Code: ErrCode(r.u32("error code"))}
	e.Table = r.str("error table")
	e.Msg = r.str("error message")
	if r.done() != nil {
		return &WireError{Code: CodeInternal, Msg: string(body)}
	}
	return e
}

// ToWireError coerces any error into a WireError for the error frame:
// existing WireErrors pass through, everything else becomes CodeInternal
// with the error text.
func ToWireError(err error) *WireError {
	var we *WireError
	if errors.As(err, &we) {
		return we
	}
	return &WireError{Code: CodeInternal, Msg: err.Error()}
}

// Unsupported builds the typed error for an unhandled message type.
func Unsupported(server string, mt MsgType) *WireError {
	return &WireError{Code: CodeUnsupported, Msg: server + ": unsupported message " + mt.String()}
}

// UnknownTable builds the typed error for a missing table.
func UnknownTable(server, table string) *WireError {
	return &WireError{
		Code:  CodeUnknownTable,
		Table: table,
		Msg:   fmt.Sprintf("%s: unknown table %q", server, table),
	}
}

// StaleReplica builds the typed error for a version/epoch divergence.
func StaleReplica(table, msg string) *WireError {
	return &WireError{Code: CodeStaleReplica, Table: table, Msg: msg}
}

// Behind builds the typed error a serving peer returns when its state is
// no newer than the requester's (staleness guard: never answer with a
// silent empty delta).
func Behind(table, msg string) *WireError {
	return &WireError{Code: CodeBehind, Table: table, Msg: msg}
}

// DeltaGap builds the typed error a serving peer returns when it is
// current but holds no relayable delta covering the requester's version.
func DeltaGap(table, msg string) *WireError {
	return &WireError{Code: CodeDeltaGap, Table: table, Msg: msg}
}

// ShardMoved builds the typed error for a shard (index or stable ID)
// that an online partition transition has re-numbered or retired since
// the caller fetched its map.
func ShardMoved(table, msg string) *WireError {
	return &WireError{Code: CodeShardMoved, Table: table, Msg: msg}
}
