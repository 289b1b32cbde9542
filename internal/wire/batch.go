package wire

import (
	"errors"
	"fmt"

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
	out := appendStr(nil, b.Table)
	out = appendU32(out, uint32(len(b.Tuples)))
	for _, tup := range b.Tuples {
		out = tup.Encode(out)
	}
	return out
}

// DecodeBatchRequest parses a BatchRequest. It is the central server's
// only insert decoder, and its input comes from any client.
func DecodeBatchRequest(body []byte) (*BatchRequest, error) {
	r := &reader{data: body}
	b := &BatchRequest{Table: r.str("table")}
	n := uint64(r.u32("tuple count"))
	if r.err != nil {
		return nil, r.err
	}
	// A tuple takes at least its 2-byte value count.
	if n*2 > uint64(len(body)-r.off) {
		return nil, errors.New("wire: implausible batch tuple count")
	}
	b.Tuples = make([]schema.Tuple, 0, n)
	for i := 0; i < int(n); i++ {
		tup, used, err := schema.DecodeTuple(body[r.off:])
		if err != nil {
			return nil, fmt.Errorf("wire: batch tuple %d: %w", i, err)
		}
		r.off += used
		b.Tuples = append(b.Tuples, tup)
	}
	if err := r.done(); err != nil {
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
	out := appendU32(nil, uint32(len(b.Results)))
	for _, res := range b.Results {
		if res.OK {
			out = appendU8(out, 1)
			continue
		}
		out = appendU8(out, 0)
		out = appendU32(out, uint32(res.Code))
		out = appendStr(out, res.Msg)
	}
	return out
}

// DecodeBatchResponse parses a BatchResponse.
func DecodeBatchResponse(body []byte) (*BatchResponse, error) {
	r := &reader{data: body}
	n := int(r.u32("result count"))
	if r.err != nil {
		return nil, r.err
	}
	if n > len(body) {
		return nil, errors.New("wire: implausible batch result count")
	}
	b := &BatchResponse{Results: make([]BatchOpResult, 0, n)}
	for i := 0; i < n && r.err == nil; i++ {
		switch flag := r.u8("op ok flag"); flag {
		case 1:
			b.Results = append(b.Results, BatchOpResult{OK: true})
		case 0:
			code := r.u32("op error code")
			if r.err == nil && code > 0xFFFF {
				return nil, fmt.Errorf("wire: batch result %d has error code %d out of range", i, code)
			}
			res := BatchOpResult{Code: ErrCode(code)}
			res.Msg = r.str("op error message")
			b.Results = append(b.Results, res)
		default:
			if r.err == nil {
				return nil, fmt.Errorf("wire: batch result %d has flag %d", i, flag)
			}
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return b, nil
}
