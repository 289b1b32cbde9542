package wire

import (
	"bytes"
	"testing"

	"edgeauth/internal/schema"
	"edgeauth/internal/storage"
	"edgeauth/internal/vo"
)

// Fuzz targets for the frame-body decoders fed by untrusted peers: the
// delta decoder runs at edge servers on central-impersonating input, and
// the query-response decoder runs at clients on edge-supplied input.
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
// dialer: exactly a version word and a capability word, nothing else.
func FuzzDecodeHelloCaps(f *testing.F) {
	f.Add(EncodeHelloCaps(ProtocolVersion, CapPeerServe))
	f.Add(appendU32(nil, ProtocolVersion)) // the retired 4-byte form
	f.Add(EncodeHelloCaps(0, 0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, caps, err := DecodeHelloCaps(data)
		if err != nil {
			return
		}
		if v == 0 {
			t.Fatal("accepted protocol version 0")
		}
		if !bytes.Equal(EncodeHelloCaps(v, caps), data) {
			t.Fatal("hello round-trip mismatch")
		}
	})
}
