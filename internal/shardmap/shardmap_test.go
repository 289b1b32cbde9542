package shardmap

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"edgeauth/internal/israce"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
)

// Range returns shard i's covering interval as (lo, hi) datum pointers;
// nil means open-ended. hi is exclusive.
func (m *Map) Range(i int) (lo, hi *schema.Datum) {
	if i > 0 {
		lo = &m.Boundaries[i-1]
	}
	if i < len(m.Boundaries) {
		hi = &m.Boundaries[i]
	}
	return lo, hi
}

// testMap is a four-shard map at partition generation 5 descending from
// 4, with shard IDs 1..4.
func testMap() *Map {
	return &Map{
		Table:       "items",
		Epoch:       7,
		MapVersion:  42,
		KeyVersion:  3,
		SignedAt:    1_700_000_000,
		MapEpoch:    5,
		ParentEpoch: 4,
		Boundaries:  []schema.Datum{schema.Int64(100), schema.Int64(200), schema.Int64(300)},
		Shards: []ShardState{
			{RootDigest: []byte{1, 1, 1, 1}, Version: 9, ID: 1},
			{RootDigest: []byte{2, 2, 2, 2}, Version: 3, ID: 2},
			{RootDigest: []byte{3, 3, 3, 3}, Version: 0, ID: 3},
			{RootDigest: []byte{4, 4, 4, 4}, Version: 12, ID: 4},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := testMap()
	dec, err := Decode(m.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Table != m.Table || dec.Epoch != m.Epoch || dec.MapVersion != m.MapVersion ||
		dec.KeyVersion != m.KeyVersion || dec.SignedAt != m.SignedAt {
		t.Fatalf("header mismatch: %+v vs %+v", dec, m)
	}
	if len(dec.Boundaries) != 3 || dec.Boundaries[1].I != 200 {
		t.Fatalf("boundaries mismatch: %+v", dec.Boundaries)
	}
	if len(dec.Shards) != 4 || dec.Shards[3].Version != 12 || dec.Shards[2].RootDigest[0] != 3 {
		t.Fatalf("shards mismatch: %+v", dec.Shards)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Map)
	}{
		{"no shards", func(m *Map) { m.Shards = nil; m.Boundaries = nil }},
		{"boundary count", func(m *Map) { m.Boundaries = m.Boundaries[:1] }},
		{"unsorted boundaries", func(m *Map) { m.Boundaries[2] = schema.Int64(150) }},
		{"equal boundaries", func(m *Map) { m.Boundaries[1] = m.Boundaries[0] }},
		{"mixed boundary types", func(m *Map) { m.Boundaries[2] = schema.Str("zzz") }},
		{"empty digest", func(m *Map) { m.Shards[0].RootDigest = nil }},
		{"digest length mismatch", func(m *Map) { m.Shards[1].RootDigest = []byte{1} }},
		{"missing table", func(m *Map) { m.Table = "" }},
	}
	for _, tc := range cases {
		m := testMap()
		tc.mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad map", tc.name)
		}
		if _, err := Decode(m.Encode()); err == nil {
			t.Errorf("%s: Decode accepted a bad map", tc.name)
		}
	}
}

func TestShardForAndRange(t *testing.T) {
	m := testMap() // boundaries 100, 200, 300 -> shards (-inf,100) [100,200) [200,300) [300,inf)
	cases := []struct {
		key  int64
		want int
	}{
		{-5, 0}, {99, 0}, {100, 1}, {150, 1}, {199, 1}, {200, 2}, {300, 3}, {1 << 40, 3},
	}
	for _, tc := range cases {
		if got := m.ShardFor(schema.Int64(tc.key)); got != tc.want {
			t.Errorf("ShardFor(%d) = %d, want %d", tc.key, got, tc.want)
		}
	}
	lo, hi := schema.Int64(150), schema.Int64(250)
	f, l := m.ShardsForRange(&lo, &hi)
	if f != 1 || l != 2 {
		t.Fatalf("ShardsForRange(150,250) = [%d,%d], want [1,2]", f, l)
	}
	f, l = m.ShardsForRange(nil, nil)
	if f != 0 || l != 3 {
		t.Fatalf("unbounded range = [%d,%d], want [0,3]", f, l)
	}
	if lo, hi := m.Range(0); lo != nil || hi == nil || hi.I != 100 {
		t.Fatalf("Range(0) = %v,%v", lo, hi)
	}
	if lo, hi := m.Range(3); lo == nil || lo.I != 300 || hi != nil {
		t.Fatalf("Range(3) = %v,%v", lo, hi)
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	key := sig.MustGenerate(sig.SchemeRSAMerkle, 512)
	sm, err := Sign(testMap(), key)
	if err != nil {
		t.Fatalf("sign: %v", err)
	}
	if err := sm.Verify(key.Public()); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Round-trip through the wire form.
	dec, err := DecodeSigned(sm.Encode())
	if err != nil {
		t.Fatalf("decode signed: %v", err)
	}
	if err := dec.Verify(key.Public()); err != nil {
		t.Fatalf("verify decoded: %v", err)
	}
	// Any mutation of the payload breaks the signature.
	evil := &Signed{Map: dec.Map.Clone(), Sig: dec.Sig}
	evil.Map.Shards = evil.Map.Shards[:3]
	evil.Map.Boundaries = evil.Map.Boundaries[:2]
	if err := evil.Verify(key.Public()); err == nil {
		t.Fatal("dropped-shard map verified")
	}
	evil2 := &Signed{Map: dec.Map.Clone(), Sig: dec.Sig}
	evil2.Map.Shards[1].RootDigest[0] ^= 0xFF
	if err := evil2.Verify(key.Public()); err == nil {
		t.Fatal("digest-swapped map verified")
	}
	evil3 := &Signed{Map: dec.Map.Clone(), Sig: dec.Sig}
	evil3.Map.MapVersion++
	if err := evil3.Verify(key.Public()); err == nil {
		t.Fatal("version-bumped map verified")
	}
	// A different key does not verify.
	other := sig.MustGenerate(sig.SchemeRSAMerkle, 512)
	if err := dec.Verify(other.Public()); err == nil {
		t.Fatal("map verified under the wrong key")
	}
}

func TestSplitByCount(t *testing.T) {
	sch := &schema.Schema{DB: "d", Table: "t", Key: 0,
		Columns: []schema.Column{{Name: "id", Type: schema.TypeInt64}}}
	var tuples []schema.Tuple
	for i := 0; i < 1000; i++ {
		tuples = append(tuples, schema.NewTuple(schema.Int64(int64(i*3))))
	}
	b, err := Split(sch, tuples, 4, SplitByCount)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 3 {
		t.Fatalf("got %d boundaries, want 3", len(b))
	}
	groups := Partition(sch, tuples, b)
	if len(groups) != 4 {
		t.Fatalf("got %d groups", len(groups))
	}
	total := 0
	for i, g := range groups {
		if len(g) < 200 || len(g) > 300 {
			t.Errorf("group %d badly balanced: %d tuples", i, len(g))
		}
		total += len(g)
	}
	if total != 1000 {
		t.Fatalf("partition lost tuples: %d", total)
	}
}

func TestSplitDegenerate(t *testing.T) {
	sch := &schema.Schema{DB: "d", Table: "t", Key: 0,
		Columns: []schema.Column{{Name: "id", Type: schema.TypeInt64}}}
	// All-duplicate keys cannot be split.
	var dup []schema.Tuple
	for i := 0; i < 10; i++ {
		dup = append(dup, schema.NewTuple(schema.Int64(5)))
	}
	b, err := Split(sch, dup, 4, SplitByCount)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 0 {
		t.Fatalf("duplicate keys produced boundaries %v", b)
	}
	// Empty table: no boundaries.
	if b, err := Split(sch, nil, 8, SplitByCount); err != nil || len(b) != 0 {
		t.Fatalf("empty split = %v, %v", b, err)
	}
	// n=0 is an error.
	if _, err := Split(sch, dup, 0, SplitByCount); err == nil {
		t.Fatal("n=0 accepted")
	}
	// Count is the only strategy.
	if _, err := Split(sch, dup, 4, "keyspan"); err == nil {
		t.Fatal("keyspan strategy accepted")
	}
}

func TestDecodeSignedRejectsMalformed(t *testing.T) {
	key := sig.MustGenerate(sig.SchemeRSAMerkle, 512)
	sm, err := Sign(testMap(), key)
	if err != nil {
		t.Fatal(err)
	}
	good := sm.Encode()
	for cut := 0; cut < len(good); cut += 7 {
		if _, err := DecodeSigned(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeSigned(append(good[:len(good):len(good)], 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := DecodeSigned(nil); err == nil {
		t.Fatal("nil accepted")
	}
}

// TestDecodeSignedBoundsItsAllocations: the boundary and shard counts are
// checked against the bytes left where each stands before anything is
// sized, so a 1 KB signed map that claims 2³¹ of either, or more than
// what is left can hold, is refused after allocating about its own size
// (the payload's copy). The second claim of each pair is under the
// payload's length, which is what the count was compared with before,
// when entries were appended one by one until the payload ran out.
func TestDecodeSignedBoundsItsAllocations(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	const size = 1024
	sg := make([]byte, 64)
	// signed wraps payload, padded so the whole body is size bytes.
	signed := func(payload []byte) []byte {
		payload = append(payload, make([]byte, size-8-len(sg)-len(payload))...)
		return appendBytes(appendBytes(nil, payload), sg)
	}
	// head is a payload up to and including its boundary count.
	head := func(boundaries uint32) []byte {
		out := appendStr(nil, "items")
		out = appendU64(out, 7)             // epoch
		out = appendU64(out, 42)            // map version
		out = appendU32(out, 3)             // key version
		out = appendU64(out, 1_700_000_000) // signed at
		out = appendU64(out, 5)             // map epoch
		out = appendU64(out, 4)             // parent epoch
		return appendU32(out, boundaries)
	}
	leastAllocated := func(body []byte) (uint64, error) {
		var err error
		got := uint64(math.MaxUint64)
		for pass := 0; pass < 3; pass++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = DecodeSigned(body)
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		return got, err
	}
	for name, body := range map[string][]byte{
		"2^31 boundaries": signed(head(1 << 31)),
		"250 boundaries":  signed(head(250)),
		"2^31 shards":     signed(appendU32(head(0), 1<<31)),
		"60 shards":       signed(appendU32(head(0), 60)),
	} {
		if len(body) != size {
			t.Fatalf("%s: body is %d bytes", name, len(body))
		}
		got, err := leastAllocated(body)
		if err == nil || !strings.Contains(err.Error(), "implausible") {
			t.Errorf("%s: a hostile %d-byte body got %v, want the count refused before it sizes anything", name, size, err)
		}
		if got > 2*size {
			t.Errorf("%s: decoding a %d-byte body allocated %d bytes", name, size, got)
		}
	}

	// The most boundaries the body can hold, every one an empty string:
	// 64 bytes of schema.Datum for each 5 received, and the payload's copy.
	// Validate refuses them (they do not ascend), after they are decoded.
	n := (size - 8 - len(sg) - len(head(0)) - 4) / 5
	payload := head(uint32(n))
	for i := 0; i < n; i++ {
		payload = schema.Str("").Encode(payload)
	}
	body := signed(appendU32(payload, 0))
	got, err := leastAllocated(body)
	if err == nil {
		t.Fatalf("%d equal boundaries accepted", n)
	}
	if got > 16*size {
		t.Errorf("%d empty boundaries: decoding a %d-byte body allocated %d bytes", n, size, got)
	}
}
