package codec_test

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"edgeauth/internal/israce"
	"edgeauth/internal/schema"
	"edgeauth/internal/shardmap"
	"edgeauth/internal/sig"
	"edgeauth/internal/wal"
)

// TestDecodersBoundTheirAllocations covers the decoders that read through
// Reader outside package wire (whose own decoders have
// wire.TestFuzzedDecodersBoundTheirAllocations): the signed shard map an
// edge relays, the WAL payloads a restart replays and the key blob. Each
// one's honest encoding, padded to 1 KB, has the word at every offset in
// turn overwritten with a claim of 2³¹ and with one of the body's whole
// length, and no such body may make its decoder allocate more than most
// times its size.
//
// Each row states its worst case. Count refuses a count the bytes left
// cannot hold at the smallest entry, and a length past the end is refused
// before anything is copied, so what a hostile word can still cost is a
// slice of as many entries as the bytes left could hold. Where an entry
// is a datum or a tuple, that slice costs up to 13 times the bytes it was
// sized from: a 64-byte schema.Datum for the 5 bytes of an empty string,
// a 24-byte schema.Tuple for the 2 bytes of an empty one, and 88 bytes
// for the 7 of a tuple holding one empty string. Every other row decodes
// fixed fields, IDs (8 bytes for 8) or copies of byte runs, and stays
// under twice its body. The parent of this test's commit sized the WAL
// batch slice by any count up to the payload's length: 1,024 tuples of
// 24 bytes, 24 times a 1 KB payload, and 25.2 MB for a 1 MiB payload
// claiming 2²⁰.
func TestDecodersBoundTheirAllocations(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	const size = 1024
	lo, hi := schema.Int64(3), schema.Str("nine")
	m := &shardmap.Map{
		Table: "items", Epoch: 7, MapVersion: 42, KeyVersion: 3, SignedAt: 1_700_000_000, MapEpoch: 5, ParentEpoch: 4,
		Boundaries: []schema.Datum{schema.Int64(100)},
		Shards:     []shardmap.ShardState{{RootDigest: []byte{1, 1}, Version: 9, ID: 1}, {RootDigest: []byte{2, 2}, Version: 3, ID: 2}},
	}
	signed, err := shardmap.Sign(m, sig.MustGenerate(sig.SchemeEd25519, 0))
	if err != nil {
		t.Fatal(err)
	}
	// datums is the worst case of a row whose counts size datums or tuples.
	datums := (uint64(unsafe.Sizeof(schema.Datum{})) + schema.MinDatumSize - 1) / schema.MinDatumSize
	keyBlob := func(scheme sig.Scheme) []byte {
		b, err := sig.MustGenerate(scheme, 512).Public().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		name   string
		honest []byte
		decode func([]byte)
		most   uint64
	}{
		{"shardmap.Decode", m.Encode(), func(b []byte) { _, _ = shardmap.Decode(b) }, datums},
		{"shardmap.DecodeSigned", signed.Encode(), func(b []byte) { _, _ = shardmap.DecodeSigned(b) }, 2},
		{"wal.DecodeBatchPayload", wal.EncodeBatchPayload([]schema.Tuple{schema.NewTuple(lo, hi), schema.NewTuple(hi)}),
			func(b []byte) { _, _ = wal.DecodeBatchPayload(b) }, datums},
		{"wal.DecodeDeletePayload", wal.EncodeDeletePayload(&lo, &hi), func(b []byte) { _, _, _ = wal.DecodeDeletePayload(b) }, 2},
		{"wal.DecodeReshardPayload", wal.EncodeReshardPayload(&wal.ReshardOp{Split: true, Shard: 1, Boundary: &hi, RetiredIDs: []uint64{4}, NewIDs: []uint64{5, 6}, MapEpoch: 3, ParentEpoch: 2}),
			func(b []byte) { _, _ = wal.DecodeReshardPayload(b) }, 2},
		{"wal.DecodePartitionCheckpoint", wal.EncodePartitionCheckpoint(&wal.PartitionCheckpoint{MapEpoch: 3, NextShardID: 7, ShardIDs: []uint64{5, 6}, Boundaries: []schema.Datum{hi}}),
			func(b []byte) { _, _ = wal.DecodePartitionCheckpoint(b) }, datums},
		{"sig.UnmarshalBinary rsa-merkle", keyBlob(sig.SchemeRSAMerkle), func(b []byte) { _ = new(sig.PublicKey).UnmarshalBinary(b) }, 2},
		{"sig.UnmarshalBinary ed25519", keyBlob(sig.SchemeEd25519), func(b []byte) { _ = new(sig.PublicKey).UnmarshalBinary(b) }, 2},
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
		if worst > tc.most*size {
			t.Errorf("%s: a %d-byte body with a hostile claim at offset %d allocated %d bytes, over %d×", tc.name, size, at, worst, tc.most)
		}
		t.Logf("%s: at most %d bytes allocated for a %d-byte hostile body", tc.name, worst, size)
	}
}

// leastAllocated returns the fewest bytes one of three calls of f
// allocated. TotalAlloc is the whole process's, so the least pass is f's
// own, without whatever the runtime allocated beside another.
func leastAllocated(f func()) uint64 {
	got := uint64(math.MaxUint64)
	for pass := 0; pass < 3; pass++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	return got
}
