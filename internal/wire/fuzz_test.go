package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"edgeauth/internal/israce"
	"edgeauth/internal/query"
	"edgeauth/internal/schema"
	"edgeauth/internal/storage"
	"edgeauth/internal/vo"
)

// Fuzz targets for the frame-body decoders fed by untrusted peers: the
// delta decoder runs at edge servers on central-impersonating input, the
// query-response decoders run at clients on edge-supplied input, the
// query requests at edges and the delete and reshard requests at the
// central on any client's input, the shard snapshot and delta requests
// at the central and at relaying edges on any replica's input, and the
// Hello at every server on any dialer's.
// Invariants: no panics, no unbounded allocation shortcuts, and accepted
// inputs re-encode byte-identically (signature checks hash the received
// bytes, so a "repairing" decoder would break authentication).

func seedDelta() *Delta {
	return &Delta{
		Table:       "items",
		FromVersion: 3,
		ToVersion:   5,
		Epoch:       0xABCDEF,
		Root:        storage.PageID(2),
		Height:      2,
		RootSig:     []byte{1, 2, 3},
		HeapPages:   []storage.PageID{4, 5},
		NumPages:    9,
		PageIDs:     []storage.PageID{6, 7},
		PageData:    [][]byte{{0xAA}, {0xBB, 0xCC}},
		KeyVersion:  1,
		Sig:         []byte{9, 9, 9},
	}
}

func FuzzDecodeDelta(f *testing.F) {
	f.Add(seedDelta().Encode())
	snapNeeded := &Delta{Table: "t", SnapshotNeeded: true, Sig: []byte{1}}
	f.Add(snapNeeded.Encode())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 48))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDelta(data)
		if err != nil {
			return
		}
		if !bytes.Equal(d.Encode(), data) {
			t.Fatal("delta round-trip mismatch")
		}
		// The signature-payload helper must agree with the re-derived core
		// bytes on any accepted input — it is what the edge actually hashes.
		fromBody, err := d.SigPayloadOfBody(data)
		if err != nil {
			t.Fatalf("SigPayloadOfBody on accepted delta: %v", err)
		}
		if !bytes.Equal(fromBody, d.SigPayload()) {
			t.Fatal("SigPayloadOfBody diverges from SigPayload")
		}
	})
}

func FuzzDecodeQueryResponse(f *testing.F) {
	rs := &vo.ResultSet{
		DB: "db", Table: "items",
		Columns: []string{"id"},
		Keys:    []schema.Datum{schema.Int64(7)},
		Tuples:  []schema.Tuple{schema.NewTuple(schema.Int64(7))},
	}
	w := &vo.VO{KeyVersion: 1, Timestamp: 1_700_000_000, TopLevel: 1, TopDigest: []byte{1, 2}}
	resp := &QueryResponse{Result: rs, VO: w}
	f.Add(resp.Encode())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x01}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodeQueryResponse(data)
		if err != nil {
			return
		}
		if q.Result == nil || q.VO == nil {
			t.Fatal("accepted query response with nil parts")
		}
		if !bytes.Equal(q.Encode(), data) {
			t.Fatal("query-response round-trip mismatch")
		}
	})
}

// FuzzDecodeSchemaResponse covers the first answer a client takes from
// the central for a table — the schema its verifier is built over.
func FuzzDecodeSchemaResponse(f *testing.F) {
	resp := &SchemaResponse{
		Schema: &schema.Schema{
			DB: "db", Table: "items",
			Columns: []schema.Column{{Name: "id", Type: schema.TypeInt64}, {Name: "cat", Type: schema.TypeString}},
		},
	}
	f.Add(resp.Encode())
	f.Add(append(resp.Encode(), 0, 0, 0, 3, 1)) // the protocol-9 form: key version, scheme
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSchemaResponse(data)
		if err != nil {
			return
		}
		if err := s.Schema.Validate(); err != nil {
			t.Fatalf("accepted an invalid schema: %v", err)
		}
		if !bytes.Equal(s.Encode(), data) {
			t.Fatal("schema-response round-trip mismatch")
		}
	})
}

// FuzzDecodeBatchResponse covers the newest client-facing decoder.
func FuzzDecodeBatchResponse(f *testing.F) {
	resp := &BatchResponse{Results: []BatchOpResult{
		{OK: true},
		{Code: CodeDuplicateKey, Msg: "dup"},
	}}
	f.Add(resp.Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBatchResponse(data)
		if err != nil {
			return
		}
		if !bytes.Equal(b.Encode(), data) {
			t.Fatal("batch-response round-trip mismatch")
		}
	})
}

// FuzzDecodeBatchRequest covers the central server's one insert decoder,
// fed by any client.
func FuzzDecodeBatchRequest(f *testing.F) {
	req := &BatchRequest{Table: "items", Tuples: []schema.Tuple{
		schema.NewTuple(schema.Int64(7), schema.Str("seven"), schema.Bytes([]byte{1, 2})),
		schema.NewTuple(schema.Float64(0.5)),
	}}
	f.Add(req.Encode())
	f.Add((&BatchRequest{Table: "t"}).Encode())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBatchRequest(data)
		if err != nil {
			return
		}
		if !bytes.Equal(b.Encode(), data) {
			t.Fatal("batch-request round-trip mismatch")
		}
	})
}

// FuzzDecodeHelloCaps covers the first bytes a server parses from any
// dialer, DecodeHello: exactly one version word, nothing else.
func FuzzDecodeHelloCaps(f *testing.F) {
	f.Add(EncodeHello(ProtocolVersion))
	f.Add([]byte{0, 0, 0, 9, 0, 0, 0, 1}) // the protocol-9 form: version, capability bits
	f.Add(EncodeHello(0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodeHello(data)
		if err != nil {
			return
		}
		if v == 0 {
			t.Fatal("accepted protocol version 0")
		}
		if !bytes.Equal(EncodeHello(v), data) {
			t.Fatal("hello round-trip mismatch")
		}
	})
}

// seedQuery is a query request with every part present: predicates and a
// projection.
func seedQuery() *QueryRequest {
	return &QueryRequest{
		Table: "items",
		Predicates: []query.Predicate{
			{Column: "id", Op: query.OpGE, Value: schema.Int64(7)},
			{Column: "cat", Op: query.OpEQ, Value: schema.Str("cat-1")},
		},
		Project: []string{"id", "cat"},
	}
}

// FuzzDecodeShardQueryRequest covers what an edge parses from any
// client for every query: the shard request and the query inside it
// (DecodeQueryRequest).
func FuzzDecodeShardQueryRequest(f *testing.F) {
	f.Add((&ShardQueryRequest{Shard: 2, Query: seedQuery()}).Encode())
	f.Add((&ShardQueryRequest{Query: &QueryRequest{Table: "items", ProjectAll: true}}).Encode())
	// An empty projection, and a projection flag of 5: both decoded and
	// re-encoded differently until the flag had to be 0 or 1 and an empty
	// projection stayed one.
	f.Add((&ShardQueryRequest{Query: &QueryRequest{Table: "items", Project: []string{}}}).Encode())
	f.Add(appendBytes(appendU32(nil, 0), append(appendU32(appendStr(nil, "items"), 0), 5, 0, 0, 0, 0)))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeShardQueryRequest(data)
		if err != nil {
			return
		}
		if !bytes.Equal(r.Encode(), data) {
			t.Fatal("shard-query-request round-trip mismatch")
		}
	})
}

// FuzzDecodeDeleteRequest covers what the central parses from any client
// asking for a key-range delete.
func FuzzDecodeDeleteRequest(f *testing.F) {
	f.Add((&DeleteRequest{Table: "items", HasLo: true, Lo: schema.Int64(5), HasHi: true, Hi: schema.Int64(10)}).Encode())
	f.Add((&DeleteRequest{Table: "items", HasHi: true, Hi: schema.Str("k")}).Encode())
	f.Add((&DeleteRequest{Table: "items"}).Encode())
	f.Add(append(appendStr(nil, "items"), 2, 2)) // presence flags of 2, once read as absent
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDeleteRequest(data)
		if err != nil {
			return
		}
		if !bytes.Equal(d.Encode(), data) {
			t.Fatal("delete-request round-trip mismatch")
		}
	})
}

// FuzzDecodeReshardRequest covers what the central's admin surface
// parses from any client commanding a split or a merge.
func FuzzDecodeReshardRequest(f *testing.F) {
	f.Add((&ReshardRequest{Table: "items", Op: ReshardSplit, Shard: 1, HasBoundary: true, Boundary: schema.Int64(500)}).Encode())
	f.Add((&ReshardRequest{Table: "items", Op: ReshardMerge, Shard: 2}).Encode())
	f.Add(append(appendStr(nil, "items"), byte(ReshardSplit), 0, 0, 0, 1, 7)) // a boundary flag of 7, once read as absent
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeReshardRequest(data)
		if err != nil {
			return
		}
		if r.Op != ReshardSplit && r.Op != ReshardMerge {
			t.Fatalf("accepted reshard op %d", r.Op)
		}
		if !bytes.Equal(r.Encode(), data) {
			t.Fatal("reshard-request round-trip mismatch")
		}
	})
}

// FuzzDecodeReshardResponse covers the acknowledgement a client takes
// from the central for a reshard.
func FuzzDecodeReshardResponse(f *testing.F) {
	f.Add((&ReshardResponse{MapEpoch: 7, NumShards: 5}).Encode())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 13))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeReshardResponse(data)
		if err != nil {
			return
		}
		if !bytes.Equal(r.Encode(), data) {
			t.Fatal("reshard-response round-trip mismatch")
		}
	})
}

// FuzzDecodeShardQueryResponse covers the client's outermost answer
// decoder, over everything an edge sends back for a query: the answer
// and the signed map beside it.
func FuzzDecodeShardQueryResponse(f *testing.F) {
	rs := &vo.ResultSet{
		DB: "db", Table: "items",
		Columns: []string{"id"},
		Keys:    []schema.Datum{schema.Int64(7)},
		Tuples:  []schema.Tuple{schema.NewTuple(schema.Int64(7))},
	}
	w := &vo.VO{KeyVersion: 1, Timestamp: 1_700_000_000, TopLevel: 1, TopDigest: []byte{1, 2}}
	f.Add((&ShardQueryResponse{Resp: &QueryResponse{Result: rs, VO: w}, SignedMap: []byte{3, 4, 5}}).Encode())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodeShardQueryResponse(data)
		if err != nil {
			return
		}
		if q.Resp == nil || q.Resp.Result == nil || q.Resp.VO == nil {
			t.Fatal("accepted shard query response with nil parts")
		}
		if !bytes.Equal(q.Encode(), data) {
			t.Fatal("shard-query-response round-trip mismatch")
		}
	})
}

// FuzzDecodeShardSnapshotRequest covers what the central and every
// relaying edge parse from a replica asking for a shard's snapshot.
func FuzzDecodeShardSnapshotRequest(f *testing.F) {
	f.Add((&ShardSnapshotRequest{Table: "items", ShardID: 7}).Encode())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeShardSnapshotRequest(data)
		if err != nil {
			return
		}
		if !bytes.Equal(r.Encode(), data) {
			t.Fatal("shard-snapshot-request round-trip mismatch")
		}
	})
}

// FuzzDecodeShardDeltaRequest covers what the central and every relaying
// edge parse from a replica asking for a shard's delta.
func FuzzDecodeShardDeltaRequest(f *testing.F) {
	f.Add((&ShardDeltaRequest{Table: "items", ShardID: 7, FromVersion: 3, Epoch: 0xABCDEF}).Encode())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeShardDeltaRequest(data)
		if err != nil {
			return
		}
		if !bytes.Equal(r.Encode(), data) {
			t.Fatal("shard-delta-request round-trip mismatch")
		}
	})
}

// FuzzDecodeStringList covers the table list a client takes from an
// edge and an edge from the central.
func FuzzDecodeStringList(f *testing.F) {
	f.Add(EncodeStringList([]string{"items", "user_orders"}))
	f.Add(EncodeStringList(nil))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		ss, err := DecodeStringList(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeStringList(ss), data) {
			t.Fatal("string-list round-trip mismatch")
		}
	})
}

// FuzzDecodeWireError covers the error frame any peer may send in place
// of an answer. It never fails: a malformed body becomes CodeInternal
// carrying the raw bytes, and a well-formed one re-encodes as it came.
func FuzzDecodeWireError(f *testing.F) {
	f.Add((&WireError{Code: CodeShardMoved, Table: "items", Msg: "moved"}).Encode())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		e := DecodeWireError(data)
		if e == nil {
			t.Fatal("nil error frame")
		}
		if !bytes.Equal(e.Encode(), data) && (e.Code != CodeInternal || e.Table != "" || e.Msg != string(data)) {
			t.Fatalf("error frame neither round-trips nor carries its raw bytes: %+v", e)
		}
	})
}

// TestFuzzedDecodersBoundTheirAllocations is the allocation half of the
// fuzz targets above, whose bodies cannot measure it (reading the
// allocator's statistics on every execution stalls the fuzzing engine).
// Whatever length or count a hostile body claims, wherever it claims it,
// decoding allocates a small multiple of the body's own size: each
// decoder's honest encoding, padded to 1 KB, has the word at every
// offset in turn overwritten with a claim of 2³¹ and with one of the
// body's whole length. The multiple is 4 because a list item can cost
// that much more than its wire bytes: an empty string is a 4-byte length
// word on the wire and a 16-byte header decoded.
func TestFuzzedDecodersBoundTheirAllocations(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	const size = 1024
	rs := &vo.ResultSet{
		DB: "db", Table: "items",
		Columns: []string{"id", "cat"},
		Keys:    []schema.Datum{schema.Int64(7), schema.Int64(8)},
		Tuples: []schema.Tuple{
			schema.NewTuple(schema.Int64(7), schema.Str("seven")),
			schema.NewTuple(schema.Int64(8), schema.Str("eight")),
		},
	}
	w := &vo.VO{KeyVersion: 1, Timestamp: 1_700_000_000, TopLevel: 1, TopDigest: []byte{1, 2}}
	for _, tc := range []struct {
		name   string
		honest []byte
		decode func([]byte)
	}{
		{"ShardQueryResponse", (&ShardQueryResponse{Resp: &QueryResponse{Result: rs, VO: w}, SignedMap: []byte{3, 4, 5}}).Encode(),
			func(b []byte) { _, _ = DecodeShardQueryResponse(b) }},
		{"ShardSnapshotRequest", (&ShardSnapshotRequest{Table: "items", ShardID: 7}).Encode(),
			func(b []byte) { _, _ = DecodeShardSnapshotRequest(b) }},
		{"ShardDeltaRequest", (&ShardDeltaRequest{Table: "items", ShardID: 7, FromVersion: 3, Epoch: 9}).Encode(),
			func(b []byte) { _, _ = DecodeShardDeltaRequest(b) }},
		{"StringList", EncodeStringList([]string{"items", "user_orders"}),
			func(b []byte) { _, _ = DecodeStringList(b) }},
		{"WireError", (&WireError{Code: CodeShardMoved, Table: "items", Msg: "moved"}).Encode(),
			func(b []byte) { _ = DecodeWireError(b) }},
		{"ShardQueryRequest", (&ShardQueryRequest{Shard: 2, Query: seedQuery()}).Encode(),
			func(b []byte) { _, _ = DecodeShardQueryRequest(b) }},
		{"QueryRequest", seedQuery().Encode(),
			func(b []byte) { _, _ = DecodeQueryRequest(b) }},
		{"DeleteRequest", (&DeleteRequest{Table: "items", HasLo: true, Lo: schema.Int64(5), HasHi: true, Hi: schema.Str("k")}).Encode(),
			func(b []byte) { _, _ = DecodeDeleteRequest(b) }},
		{"ReshardRequest", (&ReshardRequest{Table: "items", Op: ReshardSplit, Shard: 1, HasBoundary: true, Boundary: schema.Str("k")}).Encode(),
			func(b []byte) { _, _ = DecodeReshardRequest(b) }},
		{"ReshardResponse", (&ReshardResponse{MapEpoch: 7, NumShards: 5}).Encode(),
			func(b []byte) { _, _ = DecodeReshardResponse(b) }},
		{"Hello", EncodeHello(ProtocolVersion),
			func(b []byte) { _, _ = DecodeHello(b) }},
	} {
		worst, at := uint64(0), 0
		for off := 0; off+4 <= len(tc.honest); off++ {
			for _, claim := range []uint32{1 << 31, size} {
				body := append(append([]byte(nil), tc.honest...), make([]byte, size-len(tc.honest))...)
				binary.BigEndian.PutUint32(body[off:], claim)
				if got := leastAllocated(func() { tc.decode(body) }); got > worst {
					worst, at = got, off
				}
			}
		}
		if worst > 4*size {
			t.Errorf("%s: a %d-byte body with a hostile claim at offset %d allocated %d bytes", tc.name, size, at, worst)
		}
		t.Logf("%s: at most %d bytes allocated for a %d-byte hostile body", tc.name, worst, size)
	}
}
