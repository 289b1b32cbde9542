package wire

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"edgeauth/internal/schema"
	"edgeauth/internal/vo"
)

// Shard-scoped replication and query frames.
//
// A table is N ≥ 1 independent VB-trees bound by a signed shard map
// (internal/shardmap). Replication and queries address one shard at a
// time:
//
//	edge   → central: ShardMapReq        (table)              → ShardMapResp (signed map)
//	edge   → central: ShardSnapshotReq   (table, shard ID)    → SnapshotResp
//	edge   → central: ShardDeltaReq      (table, shard ID,…)  → DeltaResp
//	client → edge:    ShardMapReq        (table)              → ShardMapResp
//	client → edge:    ShardQueryReq      (shard index, query) → ShardQueryResp
//
// Replication names a shard by its stable ID (shardmap.ShardState.ID)
// from the requester's verified map: partition indices shift when a
// split or merge lands, IDs are never reused, so a request that raced a
// transition is answered for the shard it meant or with a typed
// ShardMoved — never with a neighbour's history. Shard deltas bind the ID
// into the signed Table field (see ShardRef) so a delta for one shard
// cannot be replayed against another. Queries address by index under the
// signed map attached to the answer.
//
// These are the only replication and query frames: a one-shard table
// uses them with its single shard. A server that does not serve a
// request (an edge without Options.ServePeers asked for a snapshot, say)
// answers with a typed CodeUnsupported error, which callers report —
// there is no other protocol to fall back to.

// ShardMapResp bodies are the shardmap.Signed encoding; the wire
// package treats them as opaque bytes so it does not depend on the
// shardmap package's types.

// ShardRef names one shard of a table, by stable shard ID, inside signed
// payloads (delta signatures cover the Table field, so embedding the ID
// there binds the delta to its shard).
func ShardRef(table string, shardID uint64) string {
	return table + "#" + strconv.FormatUint(shardID, 10)
}

// ShardSnapshotRequest asks the central server for one shard's full
// snapshot.
type ShardSnapshotRequest struct {
	Table   string
	ShardID uint64
}

// Encode serializes the request.
func (r *ShardSnapshotRequest) Encode() []byte {
	out := appendStr(nil, r.Table)
	return appendU64(out, r.ShardID)
}

// DecodeShardSnapshotRequest parses a ShardSnapshotRequest.
func DecodeShardSnapshotRequest(body []byte) (*ShardSnapshotRequest, error) {
	r := &reader{data: body}
	q := &ShardSnapshotRequest{Table: r.str("table")}
	q.ShardID = r.u64("shard id")
	if err := r.done(); err != nil {
		return nil, err
	}
	return q, nil
}

// ShardDeltaRequest asks the central server for the changes one shard
// replica is missing.
type ShardDeltaRequest struct {
	Table       string
	ShardID     uint64
	FromVersion uint64
	Epoch       uint64
}

// Encode serializes the request.
func (r *ShardDeltaRequest) Encode() []byte {
	out := appendStr(nil, r.Table)
	out = appendU64(out, r.ShardID)
	out = appendU64(out, r.FromVersion)
	return appendU64(out, r.Epoch)
}

// DecodeShardDeltaRequest parses a ShardDeltaRequest.
func DecodeShardDeltaRequest(body []byte) (*ShardDeltaRequest, error) {
	r := &reader{data: body}
	q := &ShardDeltaRequest{Table: r.str("table")}
	q.ShardID = r.u64("shard id")
	q.FromVersion = r.u64("from version")
	q.Epoch = r.u64("epoch")
	if err := r.done(); err != nil {
		return nil, err
	}
	return q, nil
}

// ShardQueryRequest runs a selection/projection against one shard of a
// partitioned table. The VO proves the answer against the shard's root,
// so the client can bind the answer to the verified shard map.
type ShardQueryRequest struct {
	Shard uint32
	Query *QueryRequest
}

// Encode serializes the request.
func (r *ShardQueryRequest) Encode() []byte {
	out := appendU32(nil, r.Shard)
	return appendBytes(out, r.Query.Encode())
}

// DecodeShardQueryRequest parses a ShardQueryRequest.
func DecodeShardQueryRequest(body []byte) (*ShardQueryRequest, error) {
	r := &reader{data: body}
	shard := r.u32("shard")
	qb := r.view("query")
	if err := r.done(); err != nil {
		return nil, err
	}
	q, err := DecodeQueryRequest(qb)
	if err != nil {
		return nil, err
	}
	return &ShardQueryRequest{Shard: shard, Query: q}, nil
}

// ShardQueryResponse is a shard answer plus the signed shard map the
// edge held when producing it. Serving the two together makes every
// answer self-binding: the client verifies the attached map and checks
// the VO anchors at the root digest it pins for the shard, with no
// window for the edge's refresh to slide between a separately-fetched
// map and the answer. SignedMap is an opaque shardmap.Signed encoding.
type ShardQueryResponse struct {
	Resp      *QueryResponse
	SignedMap []byte
}

// Encode serializes the response.
func (r *ShardQueryResponse) Encode() []byte {
	out, _ := AppendShardQueryResponse(nil, func(dst []byte) ([]byte, []byte, error) {
		return vo.AppendAnswer(dst, r.Resp.Result, r.Resp.VO), r.SignedMap, nil
	})
	return out
}

// AppendShardQueryResponse appends a ShardQueryResponse encoding whose
// answer section is written in place: answer appends a vo answer to the
// buffer it is given and returns it with the signed map to attach. This
// is how an edge builds the response straight from its pages, with no
// struct in between.
func AppendShardQueryResponse(dst []byte, answer func(dst []byte) (out, signedMap []byte, err error)) ([]byte, error) {
	at := len(dst)
	dst, signedMap, err := answer(append(dst, 0, 0, 0, 0))
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return appendBytes(dst, signedMap), nil
}

// DecodeShardQueryResponse parses a ShardQueryResponse. Everything in it
// — the result set, the VO's digests, SignedMap — is a view of body:
// valid until body is modified or reused. A frame body from ReadFrameV2
// belongs to the frame's receiver, so a client keeps the response as
// long as it likes; what it caches beyond (a decoded shard map, proven
// signatures) copies what it keeps.
func DecodeShardQueryResponse(body []byte) (*ShardQueryResponse, error) {
	r := &reader{data: body}
	qb := r.view("query response")
	mb := r.view("signed map")
	if err := r.done(); err != nil {
		return nil, err
	}
	resp, err := DecodeQueryResponse(qb)
	if err != nil {
		return nil, err
	}
	return &ShardQueryResponse{Resp: resp, SignedMap: mb}, nil
}

// ReshardOpKind selects the partition transition an admin requests.
type ReshardOpKind uint8

const (
	// ReshardSplit splits one shard at a boundary (server-chosen median
	// when the request carries none).
	ReshardSplit ReshardOpKind = iota + 1
	// ReshardMerge merges shard Shard with its right neighbor Shard+1.
	ReshardMerge
)

func (k ReshardOpKind) String() string {
	switch k {
	case ReshardSplit:
		return "split"
	case ReshardMerge:
		return "merge"
	}
	return fmt.Sprintf("ReshardOpKind(%d)", uint8(k))
}

// ReshardRequest is the admin frame commanding an online partition
// transition at the central server. It is a manual override of the
// hot-shard detector: operators (or tests) split/merge a specific shard
// without waiting for the EWMA thresholds to trip.
type ReshardRequest struct {
	Table string
	Op    ReshardOpKind
	// Shard is the partition index to split, or the left index of the
	// pair to merge.
	Shard uint32
	// HasBoundary/Boundary optionally pin the split key; without it the
	// server splits at the shard's median key. Ignored for merges.
	HasBoundary bool
	Boundary    schema.Datum
}

// Encode serializes the request.
func (r *ReshardRequest) Encode() []byte {
	out := appendStr(nil, r.Table)
	out = appendU8(out, uint8(r.Op))
	out = appendU32(out, r.Shard)
	if r.HasBoundary {
		out = appendU8(out, 1)
		out = r.Boundary.Encode(out)
	} else {
		out = appendU8(out, 0)
	}
	return out
}

// DecodeReshardRequest parses a ReshardRequest.
func DecodeReshardRequest(body []byte) (*ReshardRequest, error) {
	r := &reader{data: body}
	q := &ReshardRequest{Table: r.str("table")}
	q.Op = ReshardOpKind(r.u8("reshard op"))
	q.Shard = r.u32("shard")
	if r.u8("boundary flag") == 1 && r.err == nil {
		v, used, err := schema.DecodeDatum(body[r.off:])
		if err != nil {
			return nil, err
		}
		r.off += used
		q.HasBoundary, q.Boundary = true, v
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	if q.Op != ReshardSplit && q.Op != ReshardMerge {
		return nil, fmt.Errorf("wire: unknown reshard op %d", uint8(q.Op))
	}
	return q, nil
}

// ReshardResponse reports the committed transition: the new partition
// generation and shard count, so callers can poll maps until edges have
// caught up to MapEpoch.
type ReshardResponse struct {
	MapEpoch  uint64
	NumShards uint32
}

// Encode serializes the response.
func (r *ReshardResponse) Encode() []byte {
	out := appendU64(nil, r.MapEpoch)
	return appendU32(out, r.NumShards)
}

// DecodeReshardResponse parses a ReshardResponse.
func DecodeReshardResponse(body []byte) (*ReshardResponse, error) {
	r := &reader{data: body}
	q := &ReshardResponse{MapEpoch: r.u64("map epoch")}
	q.NumShards = r.u32("shard count")
	if err := r.done(); err != nil {
		return nil, err
	}
	return q, nil
}
