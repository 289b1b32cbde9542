package wire

// Session framing.
//
// Every frame carries a u32 request ID between the type byte and the
// body:
//
//	u32 len | u8 type | u32 reqID | body
//
// Responses echo the request ID of the frame they answer. internal/rpc
// carries one call at a time on a connection and a server answers a
// connection's requests in order, so the ID is a check: a response on
// any other ID means the stream is out of step.
//
// # Handshake
//
// A dialer opens every connection with a Hello on request 0 whose body is
// the highest protocol version it speaks (EncodeHello); the server
// answers on request 0 with a HelloResp carrying its own version, and the
// dialer's numbered requests follow. The Hello is a frame like any other,
// so each end reads it through the buffered reader that then reads every
// later frame. This build speaks exactly ProtocolVersion: a server
// answers anything else — a first frame that is not a Hello on request 0,
// a malformed Hello, a maximum version below its own — with one typed
// error frame on request 0 and closes, and a dialer treats any reply
// other than a HelloResp on request 0 carrying ProtocolVersion as a dial
// error.
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
	"math"

	"edgeauth/internal/codec"
)

// ProtocolVersion is the one protocol version this build speaks; the Hello
// handshake carries it in both directions. It is raised whenever the
// bytes or the meaning of a message change, so that a build from before
// the change is turned away at dial with CodeUnsupported instead of being
// sent bodies it would misparse or misread: 10 is the generation in which
// the Hello is a numbered frame on request 0 whose body is the version
// alone, and a SchemaResp is the schema alone, asked of the central, not
// of an edge — a version-9 build reads the Hello's request ID as its
// version word and refuses it, as this one refuses a version-9 Hello,
// whose version word it reads as a request ID;
// 9 is the generation in which
// an edge answers a query's closed key range with the columns its
// predicates read, and the client evaluates every predicate
// (query.Finish) — a version-8 client would take those rows as filtered;
// 8 is the generation in which a node's in-node tree has arity 3 (digest.Arity), not 8 — a page stores other group digests
// and a VO's in-node proof carries at most 2 digests per in-node level;
// 7 is the generation in which a tuple commits to its
// columns through a column tree (digest.ColumnShape) — a heap record
// stores the column group digests, its key column no digest, and a VO's
// D_P is each row's column proof, not a digest per omitted column;
// 6 is the generation in which a VO carries its
// envelope's node records and ordered in-node proofs instead of lifted
// D_S digests (package vo), and a tree's pages hold its in-node group
// digests — the same bytes no longer mean the same digests;
// 5 dropped the accumulator parameters from Snapshot and SchemaResponse
// (the accumulator is a constant, so no edge or relay chooses what a
// client verifies under); 4 made every insert travel as a MsgBatchReq (the single-insert
// frame is gone and the message types after it renumbered); 3 first
// carried a VO's digests as fixed-width runs (vo.VO.Encode); 2 put a
// length in front of each.
const ProtocolVersion = 10

// EncodeHello builds a Hello (or HelloResp) body: the sender's protocol
// version.
func EncodeHello(version uint32) []byte { return codec.AppendU32(nil, version) }

// DecodeHello parses a Hello (or HelloResp) body: exactly one non-zero
// version word.
func DecodeHello(body []byte) (uint32, error) {
	r := codec.NewReader("wire", body)
	version := r.U32("protocol version")
	if err := r.Done(); err != nil {
		return 0, err
	}
	if version == 0 {
		return 0, errors.New("wire: protocol version 0")
	}
	return version, nil
}

// FrameHeaderSize is the length of a frame's header.
const FrameHeaderSize = 4 + 1 + 4

// WriteFrame writes one frame: u32 len | u8 type | u32 reqID | body. A
// small frame is joined and leaves in one Write — one system call and,
// with TCP_NODELAY, one segment, where two writes made two of each; a
// large body (a snapshot, a delta) spans many segments anyway and follows
// its header uncopied.
func WriteFrame(w io.Writer, t MsgType, reqID uint32, body []byte) error {
	if len(body) < joinBelow {
		frame := append(make([]byte, FrameHeaderSize, FrameHeaderSize+len(body)), body...)
		return WriteFramed(w, t, reqID, frame)
	}
	hdr := make([]byte, FrameHeaderSize)
	if err := putFrameHeader(hdr, t, reqID, len(body)); err != nil {
		return err
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// WriteFramed writes a frame whose body was built in place: frame is
// FrameHeaderSize bytes of room for the header followed by the body, and
// leaves in a single Write with no copy. A server hands its handlers such
// a buffer to append the response to.
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

// ReadFrame reads one frame, returning its type, request ID and body.
// The body is a buffer allocated for this frame alone (see readBody),
// which is what lets the decoders of this package and of package vo
// return views of it: whoever receives the body owns it. That holds over
// a buffered r too — internal/rpc reads every frame, the Hello included,
// through a bufio.Reader so that a small frame costs one read of the
// connection: the body is copied out of r's buffer, and whatever does
// not fit there is read straight into the body.
func ReadFrame(r io.Reader) (MsgType, uint32, []byte, error) {
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

// errCodes is the error vocabulary, indexed by code: each code's name,
// and the sentinel errors.Is matches it to (none for the two codes that
// name no condition a caller branches on).
var errCodes = [...]struct {
	name     string
	sentinel error
}{
	CodeInternal:     {"internal", nil},
	CodeBadRequest:   {"bad-request", nil},
	CodeUnknownTable: {"unknown-table", ErrUnknownTable},
	CodeStaleReplica: {"stale-replica", ErrStaleReplica},
	CodeUnsupported:  {"unsupported", ErrUnsupported},
	CodeDuplicateKey: {"duplicate-key", ErrDuplicateKey},
	CodeBehind:       {"behind", ErrBehind},
	CodeDeltaGap:     {"delta-gap", ErrDeltaGap},
	CodeShardMoved:   {"shard-moved", ErrShardMoved},
}

func (c ErrCode) String() string {
	if int(c) < len(errCodes) && errCodes[c].name != "" {
		return errCodes[c].name
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
	return target != nil && int(e.Code) < len(errCodes) && errCodes[e.Code].sentinel == target
}

// Encode serializes the error body.
func (e *WireError) Encode() []byte {
	out := codec.AppendU32(nil, uint32(e.Code))
	out = codec.AppendStr(out, e.Table)
	return codec.AppendStr(out, e.Msg)
}

// DecodeWireError parses an error frame body. Malformed bodies (a code
// past ErrCode's range too) decode to CodeInternal with the raw bytes as
// the message, so a broken peer still yields a usable error.
func DecodeWireError(body []byte) *WireError {
	r := codec.NewReader("wire", body)
	code := r.U32("error code")
	e := &WireError{Code: ErrCode(code)}
	e.Table = r.Str("error table")
	e.Msg = r.Str("error message")
	if r.Done() != nil || code > math.MaxUint16 {
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
