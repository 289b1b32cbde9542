package vo

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

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
	for _, e := range w.DS {
		sz.DS(len(e.Sig))
	}
	for _, s := range w.DP {
		sz.DP(len(s))
	}
	var a AnswerWriter
	a.Begin(append([]byte(nil), prefix...), rs, w, sz)
	a.DP(w.DP[0])
	a.Row(enc(rs.Keys[0]), 2)
	a.DS(w.DS[0].Sig, w.DS[0].Lift)
	a.Value(enc(rs.Tuples[0].Values[0]))
	a.Value(enc(rs.Tuples[0].Values[1]))
	a.DP(w.DP[1])
	a.Row(enc(rs.Keys[1]), 2)
	a.Value(enc(rs.Tuples[1].Values[0]))
	a.DS(w.DS[1].Sig, w.DS[1].Lift)
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
	a.DS(bytes.Repeat([]byte{9}, 64), 1)
	if _, err := a.Finish(); err == nil {
		t.Fatal("an over-long D_S entry was accepted")
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
	at := bytes.Index(body, w.DP[1])
	body[at] ^= 0xFF
	if gw.DP[1][0] == w.DP[1][0] {
		t.Fatal("decoded D_P digest is a copy, not a view of the input")
	}
	body[at] ^= 0xFF
	// …with no room to grow into their neighbours.
	grs.Tuples[0].Values[1].B = append(grs.Tuples[0].Values[1].B, 0xEE)
	_ = append(gw.DS[0].Sig, 0xEE)
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

	voHead := append(make([]byte, 13), 0, 0, 0, 0, 0, 0, 0, 0) // header, empty top digest and root signature
	rsHead := []byte{0, 1, 'd', 0, 1, 't', 0, 1, 0, 1, 'c'}    // db, table, one column
	cases := []struct {
		name   string
		body   []byte
		decode func([]byte) error
	}{
		{"VO claiming 2^32-1 D_S entries", pad(u32(voHead, 0xFFFFFFFF)), decodeVOErr},
		{"VO claiming as many D_S entries as bytes", pad(u32(voHead, size)), decodeVOErr},
		{"VO claiming the most D_S entries that could fit", pad(u32(voHead, (size-len(voHead)-4)/5)), decodeVOErr},
		{"VO claiming the most D_P entries that could fit", pad(u32(u32(voHead, 0), (size-len(voHead)-8)/4)), decodeVOErr},
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

func decodeVOErr(b []byte) error { _, _, err := DecodeVO(b); return err }
func decodeRSErr(b []byte) error { _, _, err := DecodeResultSet(b); return err }
