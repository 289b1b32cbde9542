package vo

import (
	"bytes"
	"encoding/binary"
	"testing"

	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
)

// Fuzz targets for the decoders that parse edge-supplied (i.e. untrusted)
// bytes at the client. The invariants are: never panic, never
// over-consume, and successful decodes must round-trip byte-identically —
// a decoder that "repairs" attacker input would be a verification hazard.

// seedOrderedVO is an ordered-layout VO over a two-level envelope: a
// root of 3 entries recomputing position 1, the leaf there of 20 entries
// recomputing rows 4 and 5. Its D_S is the 2 root siblings and the 15 of
// the leaf (14 entries of its first group, its second group whole).
func seedOrderedVO() *VO {
	v := &VO{
		KeyVersion: 3,
		Timestamp:  1_700_000_000,
		TopLevel:   2,
		TopDigest:  bytes.Repeat([]byte{1}, 16),
		RootSig:    sig.Signature{2, 3, 4},
		Nodes:      []byte{0, 3, 0, 1, 0, 1, 0, 1, 0, 20, 0, 1, 0, 4, 0, 2},
	}
	for i := 0; i < 17; i++ {
		v.AppendDS(bytes.Repeat([]byte{byte(10 + i)}, 16))
	}
	v.AppendDP(bytes.Repeat([]byte{9}, 16))
	v.AppendDP(bytes.Repeat([]byte{8}, 16))
	return v
}

func FuzzDecodeVO(f *testing.F) {
	f.Add(sampleVO().Encode(nil))
	f.Add(seedOrderedVO().Encode(nil))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := DecodeVO(data)
		if err != nil {
			return
		}
		if n < 0 || n > len(data) {
			t.Fatalf("DecodeVO consumed %d of %d bytes", n, len(data))
		}
		re := v.Encode(nil)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("VO round-trip mismatch: decoded %d bytes, re-encoded %d", n, len(re))
		}
		if v.WireSize() != len(re) {
			t.Fatalf("WireSize %d != encoded size %d", v.WireSize(), len(re))
		}
		if err := v.CheckRuns(); err != nil {
			t.Fatalf("decoded runs are not whole digests: %d D_S, %d D_P bytes (%v)", len(v.DS), len(v.DP), err)
		}
		if _, err := v.Envelope(); err != nil {
			t.Fatalf("decoded node records are not canonical: %v", err)
		}
		// A count the bytes left cannot hold is refused: one D_P digest
		// more than the VO carries, or the VO one byte short.
		more := append([]byte(nil), data[:n]...)
		binary.BigEndian.PutUint32(more[n-len(v.DP)-4:], uint32(v.NumDP()+1))
		if _, _, err := DecodeVO(more); err == nil {
			t.Fatalf("a D_P count of %d over %d bytes was accepted", v.NumDP()+1, len(v.DP))
		}
		if _, _, err := DecodeVO(data[:n-1]); err == nil {
			t.Fatal("a VO one byte short was accepted")
		}
	})
}

func seedResultSet() *ResultSet {
	return &ResultSet{
		DB: "db", Table: "items",
		Columns: []string{"id", "val"},
		Keys:    []schema.Datum{schema.Int64(1), schema.Int64(2)},
		Tuples: []schema.Tuple{
			schema.NewTuple(schema.Int64(1), schema.Str("a")),
			schema.NewTuple(schema.Int64(2), schema.Str("b")),
		},
	}
}

func FuzzDecodeResultSet(f *testing.F) {
	f.Add(seedResultSet().Encode(nil))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x00}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, n, err := DecodeResultSet(data)
		if err != nil {
			return
		}
		if n < 0 || n > len(data) {
			t.Fatalf("DecodeResultSet consumed %d of %d bytes", n, len(data))
		}
		re := rs.Encode(nil)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("result-set round-trip mismatch at %d bytes", n)
		}
	})
}
