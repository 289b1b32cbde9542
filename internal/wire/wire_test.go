package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"edgeauth/internal/digest"
	"edgeauth/internal/israce"
	"edgeauth/internal/query"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
	"edgeauth/internal/vo"
)

// TestFrameRoundTrip: the Hello that opens every connection is a frame
// like any other — request 0, its body the version alone.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgHello, 0, EncodeHello(ProtocolVersion)); err != nil {
		t.Fatal(err)
	}
	mt, id, body, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := DecodeHello(body); mt != MsgHello || id != 0 || err != nil || v != ProtocolVersion {
		t.Fatalf("frame = %v #%d %x (%v)", mt, id, body, err)
	}
}

func TestFrameEmptyBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgPubKeyReq, 3, nil); err != nil {
		t.Fatal(err)
	}
	mt, id, body, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if mt != MsgPubKeyReq || id != 3 || len(body) != 0 {
		t.Fatalf("frame = %v #%d %q", mt, id, body)
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	// Zero length.
	if _, _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	// A type byte with no room for a request ID.
	if _, _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 1, byte(MsgPubKeyReq)})); err == nil {
		t.Fatal("frame without a request ID accepted")
	}
	// Excessive length.
	if _, _, _, err := ReadFrame(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Truncated body.
	if _, _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 9, 1, 2})); err == nil {
		t.Fatal("truncated frame accepted")
	}
	// Truncated header.
	if _, _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0})); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgShardQueryReq.String() != "shard-query-req" || MsgSnapshotResp.String() != "snapshot-resp" {
		t.Fatal("MsgType rendering")
	}
	// Every defined type has a name; anything else still renders.
	for m := MsgError; m <= MsgReshardResp; m++ {
		if strings.HasPrefix(m.String(), "MsgType(") {
			t.Fatalf("type %d has no name", uint8(m))
		}
	}
	if MsgType(0).String() != "MsgType(0)" || MsgType(200).String() != "MsgType(200)" {
		t.Fatal("unknown type should render numerically")
	}
}

func TestQueryRequestRoundTrip(t *testing.T) {
	req := &QueryRequest{
		Table: "items",
		Predicates: []query.Predicate{
			{Column: "id", Op: query.OpGE, Value: schema.Int64(10)},
			{Column: "cat", Op: query.OpEQ, Value: schema.Str("tools")},
		},
		Project: []string{"id", "cat"},
	}
	got, err := DecodeQueryRequest(req.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Table != "items" || len(got.Predicates) != 2 || len(got.Project) != 2 {
		t.Fatalf("decoded: %+v", got)
	}
	if got.Predicates[1].Op != query.OpEQ || !got.Predicates[1].Value.Equal(schema.Str("tools")) {
		t.Fatalf("predicate 1 = %v", got.Predicates[1])
	}
	if got.ProjectAll {
		t.Fatal("explicit projection flagged as all")
	}
}

func TestQueryRequestSelectStar(t *testing.T) {
	req := &QueryRequest{Table: "t", ProjectAll: true}
	got, err := DecodeQueryRequest(req.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !got.ProjectAll || got.Project != nil {
		t.Fatalf("decoded: %+v", got)
	}
}

func TestQueryRequestRejectsCorrupt(t *testing.T) {
	req := &QueryRequest{Table: "t", ProjectAll: true}
	enc := req.Encode()
	for cut := 1; cut < len(enc); cut++ {
		if _, err := DecodeQueryRequest(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestQueryResponseRoundTrip(t *testing.T) {
	resp := &QueryResponse{
		Result: &vo.ResultSet{
			DB: "db", Table: "t", Columns: []string{"id"},
			Keys:   []schema.Datum{schema.Int64(1)},
			Tuples: []schema.Tuple{schema.NewTuple(schema.Int64(1))},
		},
		VO: &vo.VO{
			KeyVersion: 2, Timestamp: 99, TopLevel: 1,
			TopDigest: digest.Value{1, 2, 3},
			RootSig:   sig.Signature{7},
			Nodes:     []byte{0, 2, 0, 1, 0, 0, 0, 1}, // 2 entries, row 0 recomputed
			DS:        bytes.Repeat([]byte{4}, 16),
			DP:        bytes.Repeat([]byte{5}, 16),
		},
	}
	got, err := DecodeQueryResponse(resp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.Table != "t" || len(got.Result.Tuples) != 1 {
		t.Fatalf("result: %+v", got.Result)
	}
	if got.VO.TopLevel != 1 || got.VO.NumDS() != 1 || got.VO.DSDigest(0)[0] != 4 || got.VO.NumDP() != 1 {
		t.Fatalf("vo: %+v", got.VO)
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	s := &schema.Schema{
		DB: "db", Table: "t",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TypeInt64},
			{Name: "v", Type: schema.TypeBytes},
		},
		Key: 0,
	}
	got, err := DecodeSchema(EncodeSchema(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.Table != "t" || len(got.Columns) != 2 || got.Columns[1].Type != schema.TypeBytes {
		t.Fatalf("decoded: %+v", got)
	}
	// An invalid schema must not decode.
	bad := *s
	bad.Key = 7
	if _, err := DecodeSchema(EncodeSchema(&bad)); err == nil {
		t.Fatal("invalid schema accepted")
	}
}

// parentAccBlock is the accumulator block every Snapshot and
// SchemaResponse carried behind its schema blob up to protocol 4: u32 size
// 16, u64 exponent 15, u8 mode 0 (m = 2^k), a zero-length modulus — the
// constants the accumulator now is.
var parentAccBlock = []byte{0, 0, 0, 0x10, 0, 0, 0, 0, 0, 0, 0, 0x0f, 0, 0, 0, 0, 0}

// withAccBlock returns body, a Snapshot encoding, with
// parentAccBlock put back behind its schema blob: what the protocol-4
// encoder wrote for the same message.
func withAccBlock(body []byte) []byte {
	at := 4 + int(binary.BigEndian.Uint32(body))
	return append(append(append([]byte(nil), body[:at]...), parentAccBlock...), body[at:]...)
}

// checkAgainstParent: enc is exactly the parent commit's encoding of the
// same message less the accumulator block, and the parent's bytes — the
// block still in them — are refused, not read as some other message:
// for trailing bytes, or where the decoder reads the block's zero byte as
// the signature scheme, for naming none.
func checkAgainstParent(t *testing.T, enc []byte, parentHex string, decode func([]byte) error) {
	t.Helper()
	parent, err := hex.DecodeString(parentHex)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != len(parent)-len(parentAccBlock) || !bytes.Equal(withAccBlock(enc), parent) {
		t.Fatalf("encoding is not the parent commit's less the %d-byte accumulator block:\n  got %x\n  parent %x", len(parentAccBlock), enc, parent)
	}
	if err := decode(parent); err == nil || !strings.Contains(err.Error(), "trailing bytes") && !strings.Contains(err.Error(), "unknown signature scheme 0") {
		t.Fatalf("parent-format body: %v, want it refused for trailing bytes", err)
	}
}

// TestSnapshotRoundTrip: a snapshot decodes to what was encoded, in 17
// bytes fewer than the parent commit (5899259) encoded it.
func TestSnapshotRoundTrip(t *testing.T) {
	s := &Snapshot{
		Schema: &schema.Schema{
			DB: "db", Table: "t",
			Columns: []schema.Column{{Name: "id", Type: schema.TypeInt64}},
			Key:     0,
		},
		Root:       7,
		Height:     3,
		RootSig:    []byte{9, 9, 9},
		PageSize:   4096,
		KeyVersion: 5,
		Scheme:     2,
		HeapPages:  []storage.PageID{1, 2, 3},
		PageIDs:    []storage.PageID{1, 2},
		PageData:   [][]byte{{0xAA}, {0xBB, 0xCC}},
	}
	got, err := DecodeSnapshot(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Root != 7 || got.Height != 3 || got.KeyVersion != 5 {
		t.Fatalf("meta: %+v", got)
	}
	if len(got.HeapPages) != 3 || got.HeapPages[2] != 3 {
		t.Fatalf("heap pages: %v", got.HeapPages)
	}
	if len(got.PageIDs) != 2 || !bytes.Equal(got.PageData[1], []byte{0xBB, 0xCC}) {
		t.Fatalf("pages: %v %v", got.PageIDs, got.PageData)
	}
	checkAgainstParent(t, s.Encode(),
		"0000001a000000026462000000017400000001000000026964010000000000000010000000000000000f000000000000000007000000030000000309090900001000000000050200000000000000000000000000000000000000030000000100000002000000030000000200000001"+
			"00000001aa0000000200000002bbcc",
		func(b []byte) error { _, err := DecodeSnapshot(b); return err })
}

// TestSchemaResponseRoundTrip: a schema response is the schema alone —
// the protocol-9 encoding less the key version and scheme behind it,
// which nothing read — and a protocol-9 body is refused for those bytes.
func TestSchemaResponseRoundTrip(t *testing.T) {
	s := &SchemaResponse{
		Schema: &schema.Schema{
			DB: "db", Table: "t",
			Columns: []schema.Column{{Name: "id", Type: schema.TypeInt64}, {Name: "v", Type: schema.TypeString}},
			Key:     0,
		},
	}
	got, err := DecodeSchemaResponse(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema.Table != "t" || len(got.Schema.Columns) != 2 || got.Schema.Columns[1].Name != "v" {
		t.Fatalf("decoded: %+v", got.Schema)
	}
	const v10 = "000000200000000264620000000174000000020000000269640100000001760300000000"
	if enc := hex.EncodeToString(s.Encode()); enc != v10 {
		t.Fatalf("encoding %s, want %s", enc, v10)
	}
	v9, _ := hex.DecodeString(v10 + "0000000501") // key version 5, scheme 1
	if _, err := DecodeSchemaResponse(v9); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Fatalf("protocol-9 body: %v, want it refused for trailing bytes", err)
	}
}

// TestSnapshotFixturesAreTheParentsLessTheAccumulatorBlock: each
// testdata/parent-cc58d1a/*/snapshot.bin is what a central at cc58d1a
// served, with exactly the accumulator block behind its schema blob cut
// out. Put back, the block restores the served bytes, whose SHA-256 is
// recorded below. (edge.TestDeltaFromParentCommitApplies installs the
// fixtures and verifies a query over them.)
func TestSnapshotFixturesAreTheParentsLessTheAccumulatorBlock(t *testing.T) {
	for scheme, served := range map[string]string{
		"rsa-merkle": "d4d36899fd3f5b9f901a4a80b65af2f239dbc084502747dadcfe7589423dab8a",
		"ed25519":    "7bf59741bd5eea789d1de285dda1b72b069ce3fc9a1f752ff588000b7c181ba7",
	} {
		b, err := os.ReadFile(filepath.Join("testdata", "parent-cc58d1a", scheme, "snapshot.bin"))
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(withAccBlock(b)); hex.EncodeToString(sum[:]) != served {
			t.Errorf("%s: fixture with the accumulator block put back hashes to %x, the served body to %s", scheme, sum, served)
		}
		if _, err := DecodeSnapshot(b); err != nil {
			t.Errorf("%s: %v", scheme, err)
		}
	}
}

func TestSnapshotRejectsCorrupt(t *testing.T) {
	s := &Snapshot{
		Schema: &schema.Schema{
			DB: "db", Table: "t",
			Columns: []schema.Column{{Name: "id", Type: schema.TypeInt64}},
		},
		PageIDs:  []storage.PageID{1},
		PageData: [][]byte{{1}},
	}
	enc := s.Encode()
	for cut := 1; cut < len(enc); cut += 7 {
		if _, err := DecodeSnapshot(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestDecodeBatchRequestBoundsItsAllocations: the tuple count is checked
// against the bytes left in the body before the tuple slice is sized, so
// a 1 KB body that claims 2³¹ tuples — or 600, more than its remaining
// bytes can hold at two bytes the least each — is refused after
// allocating about its own size, not gigabytes. 600 is under the body's
// length, which is what the count was compared with before.
func TestDecodeBatchRequestBoundsItsAllocations(t *testing.T) {
	hostile := func(count uint32) []byte {
		out := appendU32(appendStr(nil, "items"), count)
		return append(out, make([]byte, 1024-len(out))...)
	}
	for name, body := range map[string][]byte{
		"2^31 tuples": hostile(1 << 31),
		"600 tuples":  hostile(600),
	} {
		var err error
		got := leastAllocated(func() { _, err = DecodeBatchRequest(body) })
		if err == nil || !strings.Contains(err.Error(), "implausible") {
			t.Errorf("%s: a hostile %d-byte body got %v, want the count refused before it sizes anything", name, len(body), err)
		}
		if got > 2*uint64(len(body)) {
			t.Errorf("%s: decoding a %d-byte body allocated %d bytes", name, len(body), got)
		}
	}

	// What the bound admits still decodes: an honest batch round-trips.
	req := &BatchRequest{Table: "items", Tuples: []schema.Tuple{
		schema.NewTuple(schema.Int64(1), schema.Str("x")),
		schema.NewTuple(),
	}}
	got, err := DecodeBatchRequest(req.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Encode(), req.Encode()) {
		t.Fatal("batch request round-trip mismatch")
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

// TestDecodeSnapshotBoundsItsAllocations: each of a snapshot's three
// counts — the schema's columns, the heap pages, the pages — is checked
// against the bytes left where it stands before anything is sized, so a
// 1 KB body that claims 2³¹ entries, or more than what is left can hold,
// is refused after allocating about its own size. The second claim of
// each pair is under the body's length, which is what the count was
// compared with before, when entries were appended one by one until the
// body ran out.
func TestDecodeSnapshotBoundsItsAllocations(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	const size = 1024
	pad := func(b []byte) []byte { return append(b, make([]byte, size-len(b))...) }
	sch := EncodeSchema(&schema.Schema{DB: "d", Table: "t", Columns: []schema.Column{{Name: "id", Type: schema.TypeInt64}}})
	// head is a snapshot up to and including its heap page count.
	head := func(heapPages uint32) []byte {
		out := appendBytes(nil, sch)
		out = appendU32(out, 1)                 // root
		out = appendU32(out, 1)                 // height
		out = appendBytes(out, []byte{1, 2, 3}) // root sig
		out = appendU32(out, 1024)              // page size
		out = appendU32(out, 1)                 // key version
		out = appendU8(out, uint8(sig.SchemeEd25519))
		out = appendU64(out, 1) // version
		out = appendU64(out, 1) // epoch
		return appendU32(out, heapPages)
	}
	// columns is a snapshot whose schema blob is the whole body.
	columns := func(n uint32) []byte {
		blob := appendU32(appendStr(appendStr(nil, "d"), "t"), n)
		return appendBytes(nil, append(blob, make([]byte, size-4-len(blob))...))
	}
	for name, body := range map[string][]byte{
		"2^31 columns":    columns(1 << 31),
		"250 columns":     columns(250),
		"2^31 heap pages": pad(head(1 << 31)),
		"250 heap pages":  pad(head(250)),
		"2^31 pages":      pad(appendU32(head(0), 1<<31)),
		"125 pages":       pad(appendU32(head(0), 125)),
	} {
		if len(body) != size {
			t.Fatalf("%s: body is %d bytes", name, len(body))
		}
		var err error
		got := leastAllocated(func() { _, err = DecodeSnapshot(body) })
		if err == nil || !strings.Contains(err.Error(), "implausible") {
			t.Errorf("%s: a hostile %d-byte body got %v, want the count refused before it sizes anything", name, len(body), err)
		}
		if got > 2*size {
			t.Errorf("%s: decoding a %d-byte body allocated %d bytes", name, size, got)
		}
	}

	// The most pages the body can hold, every one empty, decode: 28 bytes
	// of page id and slice header for each 8 bytes received.
	most := appendU32(head(0), 0)
	n := (size - len(most)) / 8
	most = appendU32(head(0), uint32(n))
	for i := 0; i < n; i++ {
		most = appendBytes(appendU32(most, uint32(i+2)), nil)
	}
	var err error
	got := leastAllocated(func() { _, err = DecodeSnapshot(most) })
	if err != nil {
		t.Fatalf("%d empty pages: %v", n, err)
	}
	if got > 4*uint64(len(most)) {
		t.Errorf("%d empty pages: decoding a %d-byte body allocated %d bytes", n, len(most), got)
	}
}

// TestDecodeHelloCapsBoundsItsAllocations: a Hello is one word and
// nothing else, so a 1 KB one is refused for its trailing bytes at the
// cost of the error alone.
func TestDecodeHelloCapsBoundsItsAllocations(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	body := append(EncodeHello(math.MaxUint32), make([]byte, 1020)...)
	var err error
	got := leastAllocated(func() { _, err = DecodeHello(body) })
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("a %d-byte Hello got %v, want its trailing bytes refused", len(body), err)
	}
	if got > 256 {
		t.Errorf("decoding a %d-byte Hello allocated %d bytes", len(body), got)
	}
}

func TestDeleteRequestRoundTrip(t *testing.T) {
	cases := []*DeleteRequest{
		{Table: "t", HasLo: true, Lo: schema.Int64(5), HasHi: true, Hi: schema.Int64(10)},
		{Table: "t", HasLo: true, Lo: schema.Int64(5)},
		{Table: "t", HasHi: true, Hi: schema.Int64(10)},
		{Table: "t"},
	}
	for i, req := range cases {
		got, err := DecodeDeleteRequest(req.Encode())
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.HasLo != req.HasLo || got.HasHi != req.HasHi {
			t.Fatalf("case %d: flags mismatch", i)
		}
		if got.HasLo && !got.Lo.Equal(req.Lo) {
			t.Fatalf("case %d: lo mismatch", i)
		}
		if got.HasHi && !got.Hi.Equal(req.Hi) {
			t.Fatalf("case %d: hi mismatch", i)
		}
	}
}

func TestStringListRoundTrip(t *testing.T) {
	in := []string{"users", "orders", "user_orders"}
	got, err := DecodeStringList(EncodeStringList(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != "user_orders" {
		t.Fatalf("decoded: %v", got)
	}
	empty, err := DecodeStringList(EncodeStringList(nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty list: %v %v", empty, err)
	}
}

func TestU64RoundTrip(t *testing.T) {
	got, err := DecodeU64(EncodeU64(123456789))
	if err != nil || got != 123456789 {
		t.Fatalf("u64 round trip: %d %v", got, err)
	}
	if _, err := DecodeU64([]byte{1, 2}); err == nil {
		t.Fatal("short u64 accepted")
	}
	if _, err := DecodeU64(append(EncodeU64(1), 0)); err == nil {
		t.Fatal("long u64 accepted")
	}
}

// TestSchemeZeroRefused: scheme 0 — the number of the retired per-node
// rsa scheme — is refused wherever a scheme travels: in a snapshot and in
// every delta but a SnapshotNeeded marker, which names no key at all.
func TestSchemeZeroRefused(t *testing.T) {
	sch := &schema.Schema{DB: "db", Table: "t", Columns: []schema.Column{{Name: "id", Type: schema.TypeInt64}}, Key: 0}
	for _, scheme := range []uint8{0, 3} {
		snap := &Snapshot{Schema: sch, Root: 1, Height: 1, RootSig: []byte{1}, PageSize: 1024, Scheme: scheme}
		if _, err := DecodeSnapshot(snap.Encode()); err == nil {
			t.Errorf("a snapshot naming scheme %d was accepted", scheme)
		}
		d := sampleDelta()
		d.Scheme = scheme
		if _, err := DecodeDelta(d.Encode()); err == nil {
			t.Errorf("a delta naming scheme %d was accepted", scheme)
		}
	}
	marker := &Delta{Table: "items", FromVersion: 3, SnapshotNeeded: true, Sig: []byte{1}}
	if _, err := DecodeDelta(marker.Encode()); err != nil {
		t.Fatalf("a SnapshotNeeded marker: %v", err)
	}
}

// TestDecodeQueryRequestBoundsItsAllocations: the predicate count and
// the projection count are each checked against the bytes left over
// their entries' smallest encoding — 10 bytes a predicate, 4 a projected
// column — before a slice is made, so a 1 KB request that claims 2³¹
// entries, or more than its remaining bytes can hold, is refused after
// allocating about its own size. The second claim of each pair is under
// the body's length, which is what the counts were compared with before,
// when the body was filled with empty entries appended one by one until
// it ran out.
func TestDecodeQueryRequestBoundsItsAllocations(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	const size = 1024
	emptyPred := schema.Str("").Encode(appendU8(appendStr(nil, ""), 0))
	if len(emptyPred) != minPredicateSize {
		t.Fatalf("an empty predicate encodes in %d bytes, not minPredicateSize = %d", len(emptyPred), minPredicateSize)
	}
	// fill pads b to size with whole entries, then zeros.
	fill := func(b, entry []byte) []byte {
		for len(b)+len(entry) <= size {
			b = append(b, entry...)
		}
		return append(b, make([]byte, size-len(b))...)
	}
	preds := func(n uint32) []byte { return fill(appendU32(appendStr(nil, "items"), n), emptyPred) }
	// project heads a request of no predicates with n projected columns.
	project := func(n uint32) []byte {
		return appendU32(appendU8(appendU32(appendStr(nil, "items"), 0), 0), n)
	}
	for name, body := range map[string][]byte{
		"2^31 predicates":        preds(1 << 31),
		"600 predicates":         preds(600),
		"2^31 projected columns": fill(project(1<<31), make([]byte, minStringSize)),
		"600 projected columns":  fill(project(600), make([]byte, minStringSize)),
	} {
		var err error
		got := leastAllocated(func() { _, err = DecodeQueryRequest(body) })
		if err == nil || !strings.Contains(err.Error(), "implausible") {
			t.Errorf("%s: a hostile %d-byte body got %v, want the count refused before it sizes anything", name, len(body), err)
		}
		if got > 2*size {
			t.Errorf("%s: decoding a %d-byte body allocated %d bytes", name, size, got)
		}
	}

	// The most entries the bytes left can hold decode.
	head := appendU32(appendStr(nil, "items"), 0)
	n := (size - len(head) - 1) / minPredicateSize
	body := appendU32(appendStr(nil, "items"), uint32(n))
	for i := 0; i < n; i++ {
		body = append(body, emptyPred...)
	}
	q, err := DecodeQueryRequest(append(body, 1))
	if err != nil || len(q.Predicates) != n || !q.ProjectAll {
		t.Fatalf("%d empty predicates: %v", n, err)
	}
	n = (size - len(project(0))) / minStringSize
	q, err = DecodeQueryRequest(append(project(uint32(n)), make([]byte, n*minStringSize)...))
	if err != nil || len(q.Project) != n {
		t.Fatalf("%d empty projected columns: %v", n, err)
	}
}

// TestDecodeStringListBoundsItsAllocations: the item count is checked
// against the bytes left over an item's 4-byte length word before the
// slice is made, so a 1 KB list that claims 2³¹ items, or 1,020 — under
// the body's length, what the count was compared with before, when the
// slice was sized from the claim — is refused after allocating about its
// own size.
func TestDecodeStringListBoundsItsAllocations(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	const size = 1024
	list := func(n uint32) []byte { return append(appendU32(nil, n), make([]byte, size-4)...) }
	for name, body := range map[string][]byte{
		"2^31 items": list(1 << 31),
		"1020 items": list(1020),
	} {
		var err error
		got := leastAllocated(func() { _, err = DecodeStringList(body) })
		if err == nil || !strings.Contains(err.Error(), "implausible") {
			t.Errorf("%s: a hostile %d-byte body got %v, want the count refused before it sizes anything", name, len(body), err)
		}
		if got > 2*size {
			t.Errorf("%s: decoding a %d-byte body allocated %d bytes", name, size, got)
		}
	}

	// The most items the body can hold, every one empty, decode.
	n := (size - 4) / minStringSize
	got, err := DecodeStringList(list(uint32(n)))
	if err != nil || len(got) != n {
		t.Fatalf("%d empty items: %d decoded, %v", n, len(got), err)
	}
}
