package wire

import (
	"fmt"

	"edgeauth/internal/codec"
	"edgeauth/internal/schema"
)

// Inserts on the wire.
//
// A BatchRequest ships N ≥ 1 tuples for one table in a single frame — a
// single insert is a batch of one; there is no other insert frame. The
// central server applies them in one group commit, with whatever other
// inserts arrive beside them — one WAL record, one fsync, one version
// bump, one node re-sign per dirtied tree node — and answers with typed
// per-op results, so a duplicate key in op 3 does not hide the success
// of ops 0-2.

// BatchRequest sends an insert batch to the central server.
type BatchRequest struct {
	Table  string
	Tuples []schema.Tuple
}

// Encode serializes the request.
func (b *BatchRequest) Encode() []byte {
	out := codec.AppendStr(nil, b.Table)
	out = codec.AppendU32(out, uint32(len(b.Tuples)))
	for _, tup := range b.Tuples {
		out = tup.Encode(out)
	}
	return out
}

// DecodeBatchRequest parses a BatchRequest. It is the central server's
// only insert decoder, and its input comes from any client.
func DecodeBatchRequest(body []byte) (*BatchRequest, error) {
	r := codec.NewReader("wire", body)
	b := &BatchRequest{Table: r.Str("table")}
	n := r.Count("batch tuple count", codec.MinTuple)
	b.Tuples = make([]schema.Tuple, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		b.Tuples = append(b.Tuples, r.Tuple("batch tuple"))
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return b, nil
}

// BatchOpResult is the outcome of one operation inside a batch.
type BatchOpResult struct {
	// OK reports whether the tuple was inserted.
	OK bool
	// Code/Msg describe the failure when OK is false.
	Code ErrCode
	Msg  string
}

// Err returns nil for successful ops and the typed error otherwise,
// errors.Is-matchable against the wire sentinels (e.g. ErrDuplicateKey).
func (r BatchOpResult) Err() error {
	if r.OK {
		return nil
	}
	return &WireError{Code: r.Code, Msg: r.Msg}
}

// BatchResponse carries one result per request tuple, index-aligned.
type BatchResponse struct {
	Results []BatchOpResult
}

// Encode serializes the response.
func (b *BatchResponse) Encode() []byte {
	out := codec.AppendU32(nil, uint32(len(b.Results)))
	for _, res := range b.Results {
		if out = codec.AppendFlag(out, res.OK); res.OK {
			continue
		}
		out = codec.AppendU32(out, uint32(res.Code))
		out = codec.AppendStr(out, res.Msg)
	}
	return out
}

// DecodeBatchResponse parses a BatchResponse.
func DecodeBatchResponse(body []byte) (*BatchResponse, error) {
	r := codec.NewReader("wire", body)
	// A result takes at least its ok flag.
	n := r.Count("batch result count", 1)
	b := &BatchResponse{Results: make([]BatchOpResult, 0, n)}
	for i := 0; i < n && r.Err() == nil; i++ {
		if r.Flag("op ok flag") {
			b.Results = append(b.Results, BatchOpResult{OK: true})
			continue
		}
		code := r.U32("op error code")
		if code > 0xFFFF {
			return nil, fmt.Errorf("wire: batch result %d has error code %d out of range", i, code)
		}
		b.Results = append(b.Results, BatchOpResult{Code: ErrCode(code), Msg: r.Str("op error message")})
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return b, nil
}
