package vo

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"edgeauth/internal/digest"
	"edgeauth/internal/israce"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
)

// sampleAnswer is a projected two-row answer with every part populated.
func sampleAnswer() (*ResultSet, *VO) {
	rs := &ResultSet{
		DB: "db", Table: "items",
		Columns: []string{"val", "blob"},
		Keys:    []schema.Datum{schema.Int64(1), schema.Int64(2)},
		Tuples: []schema.Tuple{
			schema.NewTuple(schema.Str("a"), schema.Bytes([]byte{1, 2})),
			schema.NewTuple(schema.Str("bb"), schema.Bytes(nil)),
		},
	}
	w := sampleVO()
	w.RootSig = sigOf(4, 4, 4, 4)
	return rs, w
}

// TestAnswerWriterMatchesStructEncoders feeds AnswerWriter the fields of
// an answer out of order — as a traversal meets them — and expects the
// bytes AppendAnswer builds from the structs, after whatever dst held.
func TestAnswerWriterMatchesStructEncoders(t *testing.T) {
	rs, w := sampleAnswer()
	prefix := []byte("frame header")
	want := AppendAnswer(append([]byte(nil), prefix...), rs, w)

	var sz AnswerSizes
	enc := func(d schema.Datum) []byte { return d.Encode(nil) }
	for i, tup := range rs.Tuples {
		values := 0
		for _, v := range tup.Values {
			values += len(enc(v))
		}
		sz.Row(len(enc(rs.Keys[i])), values)
	}
	sz.DS(w.NumDS())
	sz.DP(w.NumDP())
	var a AnswerWriter
	a.Begin(append([]byte(nil), prefix...), rs, w, sz)
	a.DP(w.DPDigest(0))
	a.Row(enc(rs.Keys[0]), 2)
	a.DS(w.DSDigest(0))
	a.Value(enc(rs.Tuples[0].Values[0]))
	a.Value(enc(rs.Tuples[0].Values[1]))
	a.DP(w.DPDigest(1))
	a.Row(enc(rs.Keys[1]), 2)
	a.Value(enc(rs.Tuples[1].Values[0]))
	a.DS(w.DSDigest(1))
	a.Value(enc(rs.Tuples[1].Values[1]))
	got, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AnswerWriter wrote\n%x\nthe struct encoders\n%x", got, want)
	}
	if a.VOBytes() != w.WireSize() {
		t.Fatalf("VOBytes %d, VO.WireSize %d", a.VOBytes(), w.WireSize())
	}

	// A field the sizes did not count must fail Finish, not spill into
	// the next run.
	a.Begin(nil, rs, w, sz)
	a.DS(bytes.Repeat([]byte{9}, 64))
	if _, err := a.Finish(); err == nil {
		t.Fatal("an over-long D_S digest was accepted")
	}
	// Nor may digests of other widths cancel out inside a run: one byte
	// short and one byte long fill the D_P run exactly.
	a.Begin(nil, rs, w, sz)
	a.DS(w.DSDigest(0))
	a.DS(w.DSDigest(1))
	a.DP(w.DPDigest(0)[:digest.Size-1])
	a.DP(append(w.DPDigest(1).Clone(), 0))
	for i, tup := range rs.Tuples {
		a.Row(enc(rs.Keys[i]), 2)
		a.Value(enc(tup.Values[0]))
		a.Value(enc(tup.Values[1]))
	}
	if _, err := a.Finish(); err == nil {
		t.Fatal("two D_P digests of the wrong widths were accepted")
	}
}

// TestDecodeAnswerIsStrictAndAliases: DecodeAnswer takes the whole input
// or nothing, and what it returns is the input, not a copy of it.
func TestDecodeAnswerIsStrictAndAliases(t *testing.T) {
	rs, w := sampleAnswer()
	body := AppendAnswer(nil, rs, w)
	grs, gw, err := DecodeAnswer(body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(AppendAnswer(nil, grs, gw), body) {
		t.Fatal("decoded answer does not re-encode to its input")
	}
	// Digests and bytes values are slices of body…
	at := bytes.Index(body, w.DPDigest(1))
	body[at] ^= 0xFF
	if gw.DPDigest(1)[0] == w.DPDigest(1)[0] {
		t.Fatal("decoded D_P digest is a copy, not a view of the input")
	}
	body[at] ^= 0xFF
	// …with no room to grow into their neighbours: not a digest, and not
	// a run, whatever is appended to it.
	grs.Tuples[0].Values[1].B = append(grs.Tuples[0].Values[1].B, 0xEE)
	_ = append(gw.DSDigest(0), 0xEE)
	gw.AppendDS(w.DSDigest(0))
	_ = append(gw.DP, 0xEE)
	if !bytes.Equal(AppendAnswer(nil, rs, w), body) {
		t.Fatal("appending to a decoded value wrote into the input")
	}

	for name, bad := range map[string][]byte{
		"trailing bytes":            append(append([]byte(nil), body...), 0),
		"truncated":                 body[:len(body)-1],
		"slack inside the sections": slackInSections(body),
	} {
		if _, _, err := DecodeAnswer(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// slackInSections grows the result-set section by one byte the result
// set itself does not account for.
func slackInSections(body []byte) []byte {
	n := binary.BigEndian.Uint32(body)
	out := binary.BigEndian.AppendUint32(nil, n+1)
	out = append(out, body[4:4+n]...)
	out = append(out, 0)
	return append(out, body[4+n:]...)
}

// TestStoredViewMatchesDecodeStoredTuple: the offsets StoredView finds
// are the fields DecodeStoredTuple decodes.
func TestStoredViewMatchesDecodeStoredTuple(t *testing.T) {
	st := &StoredTuple{
		Tuple:    schema.NewTuple(schema.Int64(7), schema.Str("seven"), schema.Float64(7.5), schema.Bytes([]byte{7})),
		AttrSigs: []sig.Signature{sigOf(1), sigOf(2, 2), sigOf(), sigOf(4, 4, 4, 4)},
	}
	rec := st.EncodeBytes()
	var sv StoredView
	for pass := 0; pass < 2; pass++ { // the second pass reuses the offset tables
		if err := sv.Parse(rec); err != nil {
			t.Fatal(err)
		}
		if sv.NumColumns() != 4 {
			t.Fatalf("NumColumns = %d", sv.NumColumns())
		}
		for i, v := range st.Tuple.Values {
			if !bytes.Equal(sv.Value(i), v.Encode(nil)) {
				t.Errorf("value %d: %x", i, sv.Value(i))
			}
			if d, err := sv.Datum(i); err != nil || !d.Equal(v) {
				t.Errorf("datum %d: %v, %v", i, d, err)
			}
			if !bytes.Equal(sv.AttrSig(i), st.AttrSigs[i]) {
				t.Errorf("signature %d: %x", i, sv.AttrSig(i))
			}
		}
	}
	for i := range rec {
		if err := sv.Parse(rec[:i]); err == nil {
			t.Fatalf("record truncated to %d bytes was accepted", i)
		}
	}
	st.AttrSigs = st.AttrSigs[:3]
	if err := sv.Parse(st.EncodeBytes()); err == nil || !strings.Contains(err.Error(), "3 signatures for 4 values") {
		t.Fatalf("signature/value count mismatch: %v", err)
	}
}

// TestHostileCountsAllocateInProportionToInput: a 1 KB body cannot buy
// more than a small multiple of 1 KB by claiming large counts — each
// count is bounded by the bytes left over the smallest entry before
// anything is allocated for it. (At the parent commit the bound was the
// body length itself: 32 KB of D_S entries, 88 KB of keys and tuples.)
func TestHostileCountsAllocateInProportionToInput(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	const size = 1024
	pad := func(b []byte) []byte { return append(b, make([]byte, size-len(b))...) }
	u32 := func(b []byte, v int) []byte { return binary.BigEndian.AppendUint32(b[:len(b):len(b)], uint32(v)) }

	// Header, empty top digest and root signature, an empty root leaf,
	// 16-byte digests.
	voHead := append(make([]byte, 12), 1|orderedFlag, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 16)
	rsHead := []byte{0, 1, 'd', 0, 1, 't', 0, 1, 0, 1, 'c'} // db, table, one column
	cases := []struct {
		name   string
		body   []byte
		decode func([]byte) error
	}{
		{"VO claiming 2^32-1 D_S entries", pad(u32(voHead, 0xFFFFFFFF)), decodeVOErr},
		{"VO claiming as many D_S entries as bytes", pad(u32(voHead, size)), decodeVOErr},
		{"VO claiming the most D_S entries that could fit", pad(u32(voHead, (size-len(voHead)-4)/16)), decodeVOErr},
		{"VO claiming the most D_P entries that could fit", pad(u32(u32(voHead, 0), (size-len(voHead)-8)/16)), decodeVOErr},
		{"result set claiming as many rows as bytes", pad(u32(rsHead, size)), decodeRSErr},
		{"result set claiming the most rows that could fit", pad(u32(rsHead, (size-len(rsHead)-4)/7)), decodeRSErr},
		{"result set claiming 65535 columns", pad([]byte{0, 1, 'd', 0, 1, 't', 0xFF, 0xFF}), decodeRSErr},
	}
	for _, c := range cases {
		if len(c.body) != size {
			t.Fatalf("%s: body is %d bytes", c.name, len(c.body))
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			_ = c.decode(c.body) // most of these fail, after the allocation under test
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 32*size {
			t.Errorf("%s: decoding %d bytes allocated %d", c.name, size, per)
		}
	}
}

// TestDecodeVOBoundsItsAllocations: the two counts that size the D_S and
// D_P slices are checked against the bytes left in the body before
// anything is reserved, so a 1 KB body that claims 2³¹ digests, whatever
// width it names, is refused after allocating about its own size.
func TestDecodeVOBoundsItsAllocations(t *testing.T) {
	hostile := func(width uint16, ds, dp uint32) []byte {
		// Header, empty top digest and root signature, an empty root leaf.
		out := append(make([]byte, 12), 1|orderedFlag, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
		out = binary.BigEndian.AppendUint16(out, width)
		out = binary.BigEndian.AppendUint32(out, ds)
		if ds == 0 {
			out = binary.BigEndian.AppendUint32(out, dp)
		}
		return append(out, make([]byte, 1024-len(out))...)
	}
	// 63 digests of 16 bytes are 1,008 bytes: under the body's length,
	// over what is left of it where either count stands (993 and 989).
	for name, body := range map[string][]byte{
		"2^31 D_S digests":            hostile(16, 1<<31, 0),
		"2^31 D_P digests":            hostile(16, 0, 1<<31),
		"2^31 D_S digests at width 1": hostile(1, 1<<31, 0),
		"63 D_S digests":              hostile(16, 63, 0),
		"63 D_P digests":              hostile(16, 0, 63),
		"a D_S count at width 0":      hostile(0, 1000, 0),
		"a D_P count at width 0":      hostile(0, 0, 1000),
		"a D_S count at width 65,535": hostile(65535, 1000, 0),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := DecodeVO(body)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "implausible") {
			t.Errorf("%s: a hostile %d-byte body got %v, want the count refused before it sizes anything", name, len(body), err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 2*uint64(len(body)) {
			t.Errorf("%s: decoding a %d-byte body allocated %d bytes", name, len(body), got)
		}
	}
	// The shapes the counts cannot catch: a width and nothing of it (a
	// second spelling of width 0), and digests of another width than
	// digest.Size, such as a signature's.
	for name, body := range map[string][]byte{
		"a width with two empty runs": hostile(16, 0, 0),
		"one 64-byte D_S digest":      hostile(64, 1, 0),
		"one 8-byte D_P digest":       hostile(8, 0, 1),
	} {
		if _, _, err := DecodeVO(body); err == nil || !strings.Contains(err.Error(), "digest width") {
			t.Errorf("%s: got %v, want the width refused", name, err)
		}
	}
}

func decodeVOErr(b []byte) error { _, _, err := DecodeVO(b); return err }
func decodeRSErr(b []byte) error { _, _, err := DecodeResultSet(b); return err }
