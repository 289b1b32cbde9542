package vo

import (
	"bytes"
	"encoding/binary"
	"testing"

	"edgeauth/internal/digest"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
)

func sigOf(b ...byte) sig.Signature { return sig.Signature(b) }

// dig is a digest.Size-byte digest of one repeated byte.
func dig(b byte) digest.Value { return bytes.Repeat([]byte{b}, digest.Size) }

// sampleVO proves two rows of a one-leaf tree: a root of 4 entries
// recomputing positions 1 and 2, its D_S the digests of entries 0 and 3.
func sampleVO() *VO {
	v := &VO{
		KeyVersion: 3,
		Timestamp:  1717000000,
		TopLevel:   1,
		TopDigest:  dig(1),
		RootSig:    sigOf(2, 2, 2),
		Nodes:      []byte{0, 4, 0, 1, 0, 1, 0, 2},
	}
	v.AppendDS(dig(9))
	v.AppendDS(dig(8))
	v.AppendDP(dig(7))
	v.AppendDP(dig(6))
	return v
}

func TestVOEncodeDecodeRoundTrip(t *testing.T) {
	v := sampleVO()
	enc := v.Encode(nil)
	if len(enc) != v.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", len(enc), v.WireSize())
	}
	got, n, err := DecodeVO(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d", n, len(enc))
	}
	if got.KeyVersion != v.KeyVersion || got.Timestamp != v.Timestamp || got.TopLevel != v.TopLevel {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !got.TopDigest.Equal(v.TopDigest) {
		t.Fatal("top digest mismatch")
	}
	if got.NumDS() != 2 || !got.DSDigest(1).Equal(v.DSDigest(1)) || !bytes.Equal(got.Nodes, v.Nodes) {
		t.Fatalf("DS mismatch: %x", got.DS)
	}
	if got.NumDP() != 2 || !got.DPDigest(1).Equal(v.DPDigest(1)) {
		t.Fatalf("DP mismatch: %x", got.DP)
	}
	if got.NumDigests() != 5 {
		t.Fatalf("NumDigests = %d, want 5", got.NumDigests())
	}
	// Digests are opaque to the codec: all ones comes back byte for byte,
	// so verify refuses what the edge actually sent.
	copy(v.DSDigest(0), dig(0xFF))
	got, _, err = DecodeVO(v.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !got.DSDigest(0).Equal(dig(0xFF)) {
		t.Fatalf("digest did not round-trip: %x", got.DS)
	}
}

func TestVOEmptySets(t *testing.T) {
	leaf := []byte{0, 0, 0, 0} // an empty root leaf, no position recomputed
	v := &VO{KeyVersion: 1, TopLevel: 1, TopDigest: digest.Value{1}, Nodes: leaf}
	enc := v.Encode(nil)
	got, _, err := DecodeVO(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDS() != 0 || got.NumDP() != 0 {
		t.Fatal("empty sets did not round-trip")
	}
	if got.NumDigests() != 1 {
		t.Fatalf("NumDigests = %d, want 1", got.NumDigests())
	}
	// Each run may be empty on its own.
	for _, v := range []*VO{
		{TopLevel: 1, Nodes: leaf, DS: sampleVO().DS},
		{TopLevel: 1, Nodes: leaf, DP: sampleVO().DP},
	} {
		enc := v.Encode(nil)
		got, n, err := DecodeVO(enc)
		if err != nil || n != len(enc) || got.NumDS() != v.NumDS() || got.NumDP() != v.NumDP() || v.WireSize() != len(enc) {
			t.Fatalf("one empty run: %+v, %d of %d bytes (WireSize %d), %v", got, n, len(enc), v.WireSize(), err)
		}
	}
}

// TestVOEncodeRefusesRaggedDigests: the wire form has one digest width,
// digest.Size, so a VO cannot hold a D_S or D_P digest of another length
// — appending one panics — and one whose runs are not whole digests
// cannot be written. Encode says so instead of cutting digests at the
// wrong places.
func TestVOEncodeRefusesRaggedDigests(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: a VO took digests it cannot express", name)
			}
		}()
		f()
	}
	for name, mutate := range map[string]func(*VO){
		"short D_S digest":     func(v *VO) { v.AppendDS(sigOf(8, 8)) },
		"long D_P digest":      func(v *VO) { v.AppendDP(append(dig(6), 6)) },
		"first D_P narrower":   func(v *VO) { v.DP = nil; v.AppendDP(sigOf(7)) },
		"key-width D_S digest": func(v *VO) { v.DS, v.DP = nil, nil; v.AppendDS(make(digest.Value, 64)) },
		"empty digest":         func(v *VO) { v.DS, v.DP = nil, nil; v.AppendDS(nil) },
	} {
		v := sampleVO()
		mustPanic(name, func() { mutate(v) })
	}
	for name, mutate := range map[string]func(*VO){
		"D_S cut short": func(v *VO) { v.DS = v.DS[:len(v.DS)-1] },
		"D_P cut short": func(v *VO) { v.DP = v.DP[:len(v.DP)-1] },
	} {
		v := sampleVO()
		mutate(v)
		if v.CheckRuns() == nil {
			t.Errorf("%s: CheckRuns passed runs the wire form cannot carry", name)
		}
		mustPanic(name, func() { v.Encode(nil) })
	}
	// Dropping every digest leaves a VO with nothing to carry a width for:
	// it encodes as width 0, the one spelling of two empty runs.
	v := sampleVO()
	v.DS, v.DP = v.DS[:0], nil
	enc := v.Encode(nil)
	if w := binary.BigEndian.Uint16(enc[len(enc)-10:]); w != 0 {
		t.Fatalf("a VO emptied of its digests encodes width %d", w)
	}
	if got, _, err := DecodeVO(enc); err != nil || got.NumDigests() != 1 {
		t.Fatalf("a VO emptied of its digests: %+v, %v", got, err)
	}
}

func TestVODecodeRejectsCorrupt(t *testing.T) {
	enc := sampleVO().Encode(nil)
	for cut := 1; cut < len(enc); cut += 3 {
		if _, _, err := DecodeVO(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, _, err := DecodeVO(nil); err == nil {
		t.Fatal("nil input accepted")
	}
}

func sampleResultSet() *ResultSet {
	return &ResultSet{
		DB:      "db",
		Table:   "orders",
		Columns: []string{"id", "amount"},
		Keys:    []schema.Datum{schema.Int64(1), schema.Int64(2)},
		Tuples: []schema.Tuple{
			schema.NewTuple(schema.Int64(1), schema.Float64(10.5)),
			schema.NewTuple(schema.Int64(2), schema.Float64(20.25)),
		},
	}
}

func TestResultSetRoundTrip(t *testing.T) {
	r := sampleResultSet()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	enc := r.Encode(nil)
	if len(enc) != r.WireSize() {
		t.Fatalf("encoded %d, WireSize %d", len(enc), r.WireSize())
	}
	got, n, err := DecodeResultSet(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d", n, len(enc))
	}
	if got.DB != "db" || got.Table != "orders" {
		t.Fatalf("identity mismatch: %+v", got)
	}
	if len(got.Columns) != 2 || got.Columns[1] != "amount" {
		t.Fatalf("columns mismatch: %v", got.Columns)
	}
	if len(got.Tuples) != 2 || !got.Keys[1].Equal(schema.Int64(2)) {
		t.Fatalf("tuples mismatch")
	}
	if !got.Tuples[1].Values[1].Equal(schema.Float64(20.25)) {
		t.Fatal("tuple value mismatch")
	}
}

func TestResultSetValidate(t *testing.T) {
	r := sampleResultSet()
	r.Keys = r.Keys[:1]
	if err := r.Validate(); err == nil {
		t.Fatal("key/tuple mismatch accepted")
	}
	r = sampleResultSet()
	r.Tuples[0].Values = r.Tuples[0].Values[:1]
	if err := r.Validate(); err == nil {
		t.Fatal("short tuple accepted")
	}
	r = sampleResultSet()
	r.DB = ""
	if err := r.Validate(); err == nil {
		t.Fatal("missing identity accepted")
	}
}

func TestResultSetDecodeRejectsCorrupt(t *testing.T) {
	enc := sampleResultSet().Encode(nil)
	for cut := 1; cut < len(enc); cut += 5 {
		if _, _, err := DecodeResultSet(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestResultSetEmpty(t *testing.T) {
	r := &ResultSet{DB: "db", Table: "t", Columns: []string{"a"}}
	enc := r.Encode(nil)
	got, _, err := DecodeResultSet(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tuples) != 0 {
		t.Fatal("phantom tuples after decode")
	}
}

func TestStoredTupleRoundTrip(t *testing.T) {
	st := &StoredTuple{
		Tuple:   schema.NewTuple(schema.Int64(5), schema.Str("x")),
		Digests: columnRun(2),
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	enc := st.EncodeBytes()
	if len(enc) != st.WireSize() {
		t.Fatalf("encoded %d, WireSize %d", len(enc), st.WireSize())
	}
	got, err := DecodeStoredTuple(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Tuple.Values[1].Equal(schema.Str("x")) {
		t.Fatal("tuple mismatch")
	}
	if !bytes.Equal(got.Digests, st.Digests) {
		t.Fatal("digests mismatch")
	}
}

func TestStoredTupleValidate(t *testing.T) {
	st := &StoredTuple{
		Tuple:   schema.NewTuple(schema.Int64(5), schema.Str("x")),
		Digests: columnRun(3),
	}
	if err := st.Validate(); err == nil {
		t.Fatal("digest count mismatch accepted")
	}
	enc := st.EncodeBytes()
	if _, err := DecodeStoredTuple(enc); err == nil {
		t.Fatal("decode accepted inconsistent stored tuple")
	}
}

func TestStoredTupleDecodeRejectsCorrupt(t *testing.T) {
	st := &StoredTuple{
		Tuple:   schema.NewTuple(schema.Int64(5), schema.Str("y"), schema.Str("z")),
		Digests: columnRun(3),
	}
	enc := st.EncodeBytes()
	for cut := 1; cut < len(enc); cut += 2 {
		if _, err := DecodeStoredTuple(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestOrderedVORoundTrip: the ordered layout round-trips, its node
// records call for the rows it recomputes, and a record that is not
// canonical is refused.
func TestOrderedVORoundTrip(t *testing.T) {
	v := seedOrderedVO()
	enc := v.Encode(nil)
	if enc[12] != 2|orderedFlag {
		t.Fatalf("level byte %#x, want the level with the ordered flag", enc[12])
	}
	got, n, err := DecodeVO(enc)
	if err != nil || n != len(enc) || v.WireSize() != len(enc) {
		t.Fatalf("decode: %v (%d of %d bytes, WireSize %d)", err, n, len(enc), v.WireSize())
	}
	if got.TopLevel != 2 || got.NumDS() != 17 || got.NumDP() != 2 || !bytes.Equal(got.Encode(nil), enc) {
		t.Fatalf("decoded %+v", got)
	}
	if rows, err := got.Envelope(); err != nil || rows != 2 {
		t.Fatalf("envelope: %d rows, %v; want 2", rows, err)
	}
	// The flag is the layout: a VO without it is refused.
	flat := bytes.Clone(enc)
	flat[12] &^= orderedFlag
	if _, _, err := DecodeVO(flat); err == nil {
		t.Error("a VO without the ordered flag was accepted")
	}
	for name, nodes := range map[string][]byte{
		"run past the count":     {0, 3, 0, 1, 0, 2, 0, 2, 0, 20, 0, 1, 0, 4, 0, 2},
		"touching runs":          {0, 3, 0, 2, 0, 0, 0, 1, 0, 1, 0, 1, 0, 20, 0, 1, 0, 4, 0, 2, 0, 20, 0, 1, 0, 4, 0, 2},
		"empty run":              {0, 3, 0, 1, 0, 1, 0, 0},
		"child with no position": {0, 3, 0, 1, 0, 1, 0, 1, 0, 20, 0, 0},
		"missing child record":   {0, 3, 0, 1, 0, 1, 0, 1},
		"runs cut short":         {0, 3, 0, 2, 0, 1},
		"record cut short":       {0, 3, 0},
	} {
		w := seedOrderedVO()
		w.Nodes = nodes
		if _, _, err := DecodeVO(w.Encode(nil)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDecodeVOBoundsHostileNodeRecords: node records are checked against
// the bytes left before anything is sized or walked by their counts. A
// 1 KB VO whose records claim 65,535 entries a node — every one of them
// recomputed, or as many runs as fit — is decoded or refused for one VO
// allocation (and its error), however many children, siblings or rows it
// claims.
func TestDecodeVOBoundsHostileNodeRecords(t *testing.T) {
	hostile := func(level uint8, records []byte) []byte {
		w := &VO{TopLevel: level, TopDigest: make(digest.Value, 16), RootSig: sig.Signature{1}, Nodes: records}
		out := w.Encode(nil)
		return append(out, make([]byte, 1024-len(out))...)
	}
	every := []byte{0xFF, 0xFF, 0, 1, 0, 0, 0xFF, 0xFF} // 65,535 entries, all recomputed
	// 65,535 entries, every other one of the first 480: 240 runs, where an
	// answer, a contiguous key range, recomputes one run a node.
	var scattered []byte
	scattered = append(scattered, 0xFF, 0xFF, 0, 240)
	for i := 0; i < 240; i++ {
		scattered = binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint16(scattered, uint16(2*i)), 1)
	}
	for name, tc := range map[string]struct {
		body []byte
		ok   bool
	}{
		"65,535 children, all recomputed": {hostile(3, every), false},
		"65,535 rows in one leaf":         {hostile(1, every), true},
		"240 runs over 65,535 entries":    {hostile(1, scattered), false},
	} {
		var err error
		allocs := testing.AllocsPerRun(10, func() { _, _, err = DecodeVO(tc.body) })
		if (err == nil) != tc.ok {
			t.Errorf("%s: %v", name, err)
		}
		if allocs > 2 { // the VO, and the error of a refusal
			t.Errorf("%s: %.0f allocations to decode 1 KB", name, allocs)
		}
	}
	// Well-formed, the one-leaf claim decodes — and calls for 65,535 rows,
	// which a verifier checks against the result set before it hashes
	// anything.
	w := &VO{TopLevel: 1, TopDigest: make(digest.Value, 16), RootSig: sig.Signature{1}, Nodes: every}
	got, _, err := DecodeVO(w.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := got.Envelope(); err != nil || rows != 0xFFFF {
		t.Fatalf("envelope: %d rows, %v", rows, err)
	}
}
