// Package wire defines the binary protocol spoken between clients, edge
// servers and the central server (the arrows of the paper's Figure 2).
// Every table is a range-partitioned set of VB-tree shards bound by a
// signed shard map — a plain table is a one-shard map — so replication
// and queries address one shard at a time (see shard.go):
//
//	client → edge:    ShardMapReq         (table)           → ShardMapResp
//	client → edge:    ShardQueryReq       (shard, query)    → ShardQueryResp
//	                                      (result set + VO + the signed map)
//	edge   → central: ShardMapReq         (table)           → ShardMapResp
//	edge   → central: ShardSnapshotReq    (table, shard)    → SnapshotResp
//	                                      (pages + tree metadata + version)
//	edge   → central: ShardDeltaReq       (table, shard, …) → DeltaResp
//	                                      (signed incremental update)
//	edge   → edge:    ShardSnapshotReq / ShardDeltaReq (the peer tier relays
//	                                      the central's signed payloads)
//	client → central: BatchReq/DeleteReq  (updates go to the trusted
//	                                      server; an insert is a batch)
//	client → central: PubKeyReq           (the PKI stand-in: an authenticated
//	                                       channel to the signer's public key)
//	client → central: SchemaReq (table)   → SchemaResp (the schema the
//	                                       client verifies answers under)
//
// # Delta propagation
//
// The paper propagates updates from the trusted central DBMS to edge
// servers periodically. Re-shipping a full snapshot per refresh is
// O(table); the delta frames ship only what changed:
//
//   - ShardDeltaReq carries {table, shard, fromVersion, epoch}, where
//     fromVersion is the shard version the edge's replica currently
//     reflects (versions are bumped once per committed update at the
//     central server, in lockstep with the WAL's LSNs).
//   - DeltaResp carries {fromVersion, toVersion, tree metadata, the pages
//     dirtied by the ops in (fromVersion, toVersion]} plus a signature by
//     the central server over a hash of the delta content, so an edge
//     rejects corrupted or forged deltas before touching its replica.
//     Page payloads carry the VB-tree's signed digests, so a delta also
//     re-anchors client verification at the new root signature.
//   - When the central server's retained changelog no longer covers
//     fromVersion (retention window passed, or the server restarted),
//     DeltaResp has SnapshotNeeded set and the edge falls back to a full
//     ShardSnapshotReq.
//
// # Framing and versions
//
// Every frame, the Hello exchange that opens a connection included, is
// u32 length | u8 type | u32 request ID | body (see frame.go): the Hello
// and its answer are request 0, and later requests carry the IDs their
// sender numbers them by, so calls multiplex. All integers are
// big-endian, and a hard frame cap bounds allocation from untrusted
// peers.
//
// # Lifetime of decoded values
//
// ReadFrame allocates a fresh buffer for every frame and hands it to
// the caller, which is what lets the query-path decoders copy nothing:
// DecodeShardQueryResponse and DecodeQueryResponse (through package vo)
// return structs whose digests, bytes values and signed map are slices of
// the frame body, and whose strings share one conversion of it. They are
// valid, and to be treated as read-only, until that body is modified or
// reused — for a frame read off a connection, for as long as the caller
// keeps them. The other decoders copy what they return. On the serving
// side the direction is reversed: a handler appends its response to a
// buffer the connection lends and recycles (see rpc.Handler), so what it
// appended must not be referenced once it has returned.
//
// There is one protocol generation: the handshake rejects any peer that
// does not speak it, and no frame exists only for interoperability.
// MsgType and ErrCode values are an in-flight vocabulary, not a stored
// format — WAL records and traces carry no message types — so retiring a
// frame deletes its constant and renumbers the rest.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// MsgType tags a frame.
type MsgType uint8

const (
	MsgError MsgType = iota + 1
	// MsgSnapshotResp / MsgDeltaResp answer ShardSnapshotReq /
	// ShardDeltaReq: a shard's snapshot and delta have exactly the shapes
	// of a small table's.
	MsgSnapshotResp
	MsgDeltaResp
	MsgListTablesReq
	MsgListTablesResp
	MsgPubKeyReq
	MsgPubKeyResp
	MsgSchemaReq
	MsgSchemaResp
	MsgDeleteReq
	MsgDeleteResp
	// MsgHello / MsgHelloResp open every connection, as request 0 (see
	// frame.go).
	MsgHello
	MsgHelloResp
	// MsgBatchReq / MsgBatchResp carry every insert — one tuple or many —
	// to the central server and its typed per-op results back (see
	// batch.go).
	MsgBatchReq
	MsgBatchResp
	// Shard-scoped replication and query frames (see shard.go).
	// ShardMapResp carries a shardmap.Signed encoding.
	MsgShardMapReq
	MsgShardMapResp
	MsgShardSnapshotReq
	MsgShardDeltaReq
	MsgShardQueryReq
	MsgShardQueryResp
	// MsgReshardReq / MsgReshardResp carry an online partition-transition
	// command (split a hot shard, merge a cold pair) to the central
	// server's admin surface (see shard.go).
	MsgReshardReq
	MsgReshardResp
)

var msgTypeNames = [...]string{
	MsgError:            "error",
	MsgSnapshotResp:     "snapshot-resp",
	MsgDeltaResp:        "delta-resp",
	MsgListTablesReq:    "list-tables-req",
	MsgListTablesResp:   "list-tables-resp",
	MsgPubKeyReq:        "pubkey-req",
	MsgPubKeyResp:       "pubkey-resp",
	MsgSchemaReq:        "schema-req",
	MsgSchemaResp:       "schema-resp",
	MsgDeleteReq:        "delete-req",
	MsgDeleteResp:       "delete-resp",
	MsgHello:            "hello",
	MsgHelloResp:        "hello-resp",
	MsgBatchReq:         "batch-req",
	MsgBatchResp:        "batch-resp",
	MsgShardMapReq:      "shard-map-req",
	MsgShardMapResp:     "shard-map-resp",
	MsgShardSnapshotReq: "shard-snapshot-req",
	MsgShardDeltaReq:    "shard-delta-req",
	MsgShardQueryReq:    "shard-query-req",
	MsgShardQueryResp:   "shard-query-resp",
	MsgReshardReq:       "reshard-req",
	MsgReshardResp:      "reshard-resp",
}

func (m MsgType) String() string {
	if int(m) < len(msgTypeNames) && msgTypeNames[m] != "" {
		return msgTypeNames[m]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(m))
}

// MaxFrameSize bounds a single frame (1 GiB) to keep a malicious peer from
// forcing unbounded allocation.
const MaxFrameSize = 1 << 30

// joinBelow is the body size under which writeTogether copies header and
// body into one buffer: requests, acknowledgements and error frames.
const joinBelow = 4 << 10

// writeTogether writes a frame's header and body. A small frame is joined
// and leaves in one Write — one system call and, with TCP_NODELAY, one
// segment, where two writes made two of each; a large body (a snapshot, a
// delta) spans many segments anyway and follows its header uncopied.
func writeTogether(w io.Writer, hdr, body []byte) error {
	if len(body) < joinBelow {
		_, err := w.Write(append(append(make([]byte, 0, len(hdr)+len(body)), hdr...), body...))
		return err
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// bodyChunk is the most a frame's length word makes a reader allocate
// before any of the body has arrived. It covers every query answer, so
// the read path's frames are one allocation filled by the reads
// themselves; only bulk replication payloads grow past it.
const bodyChunk = 64 << 10

// readBody reads the n bytes that follow a frame's length word into a
// buffer allocated for this frame alone. The length is the sender's claim:
// past bodyChunk the buffer doubles only as bytes actually arrive, so a
// peer costs memory in proportion to what it sent, not to what it
// announced.
func readBody(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, bodyChunk))
	got := 0
	for {
		if _, err := io.ReadFull(r, buf[got:]); err != nil {
			return nil, fmt.Errorf("wire: short frame: %w", err)
		}
		if got = len(buf); got == n {
			return buf, nil
		}
		grown := make([]byte, min(n, 2*got))
		copy(grown, buf)
		buf = grown
	}
}

// --- primitive encoding helpers shared by the message codecs ---

func appendU8(dst []byte, v uint8) []byte { return append(dst, v) }
func appendU32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}
func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}
func appendStr(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}
func appendBytes(dst []byte, b []byte) []byte {
	dst = appendU32(dst, uint32(len(b)))
	return append(dst, b...)
}

// reader is a cursor over a frame body.
type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated %s at offset %d", what, r.off)
	}
}

func (r *reader) u8(what string) uint8 {
	if r.err != nil || r.off+1 > len(r.data) {
		r.fail(what)
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

// flag reads a presence byte: 0 or 1, anything else refused, so an
// accepted body re-encodes as it came.
func (r *reader) flag(what string) bool {
	switch v := r.u8(what); {
	case r.err != nil:
		return false
	case v > 1:
		r.err = fmt.Errorf("wire: %s %d is neither 0 nor 1", what, v)
		return false
	default:
		return v == 1
	}
}

func (r *reader) u32(what string) uint32 {
	if r.err != nil || r.off+4 > len(r.data) {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64(what string) uint64 {
	if r.err != nil || r.off+8 > len(r.data) {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *reader) str(what string) string {
	n := int(r.u32(what))
	if r.err != nil || n < 0 || r.off+n > len(r.data) {
		r.fail(what)
		return ""
	}
	s := string(r.data[r.off : r.off+n])
	r.off += n
	return s
}

func (r *reader) bytes(what string) []byte {
	v := r.view(what)
	if r.err != nil {
		return nil
	}
	return append(make([]byte, 0, len(v)), v...)
}

// view is bytes without the copy: the result is a slice of the frame
// body, valid until that is modified or reused.
func (r *reader) view(what string) []byte {
	n := int(r.u32(what))
	if r.err != nil || n < 0 || r.off+n > len(r.data) {
		r.fail(what)
		return nil
	}
	v := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.data)-r.off)
	}
	return nil
}
