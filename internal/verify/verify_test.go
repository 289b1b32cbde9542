package verify

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"sync"
	"testing"
	"time"

	"edgeauth/internal/digest"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/vo"
	"edgeauth/internal/workload"
)

// These tests rebuild the commitment by hand — attribute and tuple
// digests, leaf and root digests, the root signature and the node records
// of a VO — without using the vbtree package, so they cross-check the
// verifier against an independent derivation of the ordered layout.

var (
	keyOnce sync.Once
	testKey *sig.PrivateKey
)

// trusted returns a registry that trusts pub alone.
func trusted(pub *sig.PublicKey) *sig.Registry {
	r := sig.NewRegistry()
	r.Put(pub)
	return r
}

func signer(t testing.TB) *sig.PrivateKey {
	t.Helper()
	keyOnce.Do(func() { testKey = sig.MustGenerate(sig.SchemeRSAMerkle, 512) })
	return testKey
}

func testSchema() *schema.Schema {
	return &schema.Schema{
		DB:    "db",
		Table: "t",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TypeInt64},
			{Name: "val", Type: schema.TypeString},
		},
		Key: 0,
	}
}

// handTree builds the digests of tuples (id=i, val=v[i]).
type handTree struct {
	acc    *digest.Accumulator
	key    *sig.PrivateKey
	sch    *schema.Schema
	tuples []schema.Tuple
	uT     []digest.Value   // tuple digests
	attrs  [][]digest.Value // attribute digests, per tuple
}

func buildHand(t *testing.T, vals []string) *handTree {
	t.Helper()
	return buildHandWith(t, digest.MustNew(digest.DefaultParams()), vals)
}

// buildHandWith is buildHand under a caller-chosen accumulator.
func buildHandWith(t *testing.T, acc *digest.Accumulator, vals []string) *handTree {
	t.Helper()
	h := &handTree{acc: acc, key: signer(t), sch: testSchema()}
	for i, v := range vals {
		tup := schema.NewTuple(schema.Int64(int64(i)), schema.Str(v))
		attrs, ut := orderedTuple(h.acc, h.sch, tup)
		h.tuples = append(h.tuples, tup)
		h.uT = append(h.uT, ut)
		h.attrs = append(h.attrs, attrs)
	}
	return h
}

// orderedTuple computes a tuple's attribute digests (nil for the key
// column, which has none) with digest.AttrDigest, and its tuple digest by
// hand: a column tree of arity 3 over the non-key attribute digests in
// schema order, its groups hashed under tag 0x05, and the tuple hash
// under tag 0x02 over the key and the tree's top digests.
func orderedTuple(acc *digest.Accumulator, sch *schema.Schema, tup schema.Tuple) (attrs []digest.Value, ut digest.Value) {
	attrs = make([]digest.Value, len(tup.Values))
	var level [][]byte
	for i, val := range tup.Values {
		if i != sch.Key {
			attrs[i] = acc.AttrDigest(nil, i, val.CanonicalBytes())
			level = append(level, attrs[i])
		}
	}
	for len(level) > 3 {
		var next [][]byte
		for lo := 0; lo < len(level); lo += 3 {
			p := []byte{0x05}
			for _, d := range level[lo:min(lo+3, len(level))] {
				p = append(p, d...)
			}
			sum := sha256.Sum256(p)
			next = append(next, sum[:digest.Size])
		}
		level = next
	}
	key := tup.Key(sch).KeyBytes()
	p := append([]byte{0x02, byte(len(key) >> 8), byte(len(key))}, key...)
	for _, d := range level {
		p = append(p, d...)
	}
	sum := sha256.Sum256(p)
	return attrs, sum[:digest.Size]
}

// group is an in-node group digest computed by hand: SHA-256 under tag
// 0x03 over its entries, truncated.
func group(entries ...digest.Value) digest.Value {
	p := []byte{0x03}
	for _, e := range entries {
		p = append(p, e...)
	}
	sum := sha256.Sum256(p)
	return sum[:digest.Size]
}

// node is the digest of a node at the given level over its entries.
func (h *handTree) node(level int, entries ...digest.Value) digest.Value {
	groups := make([]byte, digest.StoredBytes(len(entries)))
	return digest.CommitNode(h.acc, level, h.sch.DB, h.sch.Table, entries, groups, nil, 0, nil)
}

// record is one node record: its entry count and runs, each a start and
// a length.
func record(count int, runs ...int) []byte {
	out := []byte{byte(count >> 8), byte(count), 0, byte(len(runs) / 2)}
	for _, r := range runs {
		out = append(out, byte(r>>8), byte(r))
	}
	return out
}

// voAt builds a VO proving from the root digest top of the given level,
// with its root signature, over the node records.
func (h *handTree) voAt(t *testing.T, level int, top digest.Value, records ...[]byte) *vo.VO {
	t.Helper()
	w := &vo.VO{
		Timestamp: time.Now().Unix(),
		TopLevel:  uint8(level),
		TopDigest: top,
		RootSig:   h.key.MustSign(top),
	}
	for _, r := range records {
		w.Nodes = append(w.Nodes, r...)
	}
	return w
}

// rows is the result set of the given tuples over all columns.
func (h *handTree) rows(idx ...int) *vo.ResultSet {
	rs := &vo.ResultSet{DB: "db", Table: "t", Columns: []string{"id", "val"}}
	for _, i := range idx {
		rs.Keys = append(rs.Keys, h.tuples[i].Values[0])
		rs.Tuples = append(rs.Tuples, h.tuples[i])
	}
	return rs
}

func (h *handTree) verifier() *Verifier {
	return &Verifier{Keys: trusted(h.key.Public()), Acc: h.acc, Schema: h.sch}
}

func TestHandBuiltLeafLevelVO(t *testing.T) {
	// One leaf holding t0..t3, in-node groups {t0, t1, t2} and {t3};
	// the query returns {t1, t2}, one run. The leaf's proof, in D_S, is
	// t0's tuple digest and the digest of the group holding only t3.
	h := buildHand(t, []string{"a", "b", "c", "d"})
	rs := h.rows(1, 2)
	w := h.voAt(t, 1, h.node(1, h.uT...), record(4, 1, 2))
	w.AppendDS(h.uT[0])
	w.AppendDS(group(h.uT[3]))
	if err := h.verifier().Verify(rs, w); err != nil {
		t.Fatalf("hand-built leaf VO rejected: %v", err)
	}
	// Sanity: a wrong result value breaks it.
	rs.Tuples[0].Values[1] = schema.Str("tampered")
	if err := h.verifier().Verify(rs, w); err == nil {
		t.Fatal("tampered hand-built result accepted")
	}

	// {t0, t2} recomputes the right root from two runs, and is refused
	// for them: an answer is a key range, one run a node, and a gap in
	// it would be a row left out.
	gapped := h.voAt(t, 1, h.node(1, h.uT...), record(4, 0, 1, 2, 1))
	gapped.AppendDS(h.uT[1])
	gapped.AppendDS(group(h.uT[3]))
	if err := h.verifier().Verify(h.rows(0, 2), gapped); !errors.Is(err, ErrMalformed) {
		t.Fatalf("a leaf record of two runs: %v, want ErrMalformed", err)
	}
}

func TestHandBuiltTwoLevelVO(t *testing.T) {
	// Two leaves: L1 = {t0,t1}, L2 = {t2,t3}, under a root at level 2.
	// The query returns the whole of L1: the root's record recomputes
	// position 0, L1's both rows, and L2's digest is the root's proof.
	h := buildHand(t, []string{"a", "b", "c", "d"})
	uL1 := h.node(1, h.uT[0], h.uT[1])
	uL2 := h.node(1, h.uT[2], h.uT[3])
	uRoot := h.node(2, uL1, uL2)
	w := h.voAt(t, 2, uRoot, record(2, 0, 1), record(2, 0, 2))
	w.AppendDS(uL2)
	if err := h.verifier().Verify(h.rows(0, 1), w); err != nil {
		t.Fatalf("hand-built two-level VO rejected: %v", err)
	}
	// Proofs at two levels: result {t0}, so the root's proof is L2's
	// digest and L1's is t1's tuple digest — record by record, in order.
	w2 := h.voAt(t, 2, uRoot, record(2, 0, 1), record(2, 0, 1))
	w2.AppendDS(uL2)
	w2.AppendDS(h.uT[1])
	if err := h.verifier().Verify(h.rows(0), w2); err != nil {
		t.Fatalf("two-level proof VO rejected: %v", err)
	}
	// The same digests in the other order enter the wrong nodes.
	w2.DS = nil
	w2.AppendDS(h.uT[1])
	w2.AppendDS(uL2)
	if err := h.verifier().Verify(h.rows(0), w2); err == nil {
		t.Fatal("proof digests in the wrong nodes accepted")
	}
}

func TestHandBuiltProjectionVO(t *testing.T) {
	// Single leaf; the query projects to {id}; the "val" digests travel
	// in D_P, row by row.
	h := buildHand(t, []string{"a", "b"})
	rs := &vo.ResultSet{
		DB: "db", Table: "t",
		Columns: []string{"id"},
		Keys:    []schema.Datum{h.tuples[0].Values[0], h.tuples[1].Values[0]},
		Tuples: []schema.Tuple{
			{Values: []schema.Datum{h.tuples[0].Values[0]}},
			{Values: []schema.Datum{h.tuples[1].Values[0]}},
		},
	}
	w := h.voAt(t, 1, h.node(1, h.uT...), record(2, 0, 2))
	w.AppendDP(h.attrs[0][1])
	w.AppendDP(h.attrs[1][1])
	if err := h.verifier().Verify(rs, w); err != nil {
		t.Fatalf("hand-built projection VO rejected: %v", err)
	}
	// D_P digests belong to their rows: swapped, each row hashes another
	// row's value digest.
	w.DP = nil
	w.AppendDP(h.attrs[1][1])
	w.AppendDP(h.attrs[0][1])
	if err := h.verifier().Verify(rs, w); err == nil {
		t.Fatal("reordered D_P accepted")
	}
	// Dropping one D_P digest leaves the last row's proof short.
	w.DP = w.DPDigest(0)
	if err := h.verifier().Verify(rs, w); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short D_P: %v, want ErrMalformed", err)
	}
}

// TestHandBuiltColumnTreeVO: on the benchmark's ten columns a tuple
// commits to its nine non-key columns through three column groups,
// {cat, a2, a3}, {a4, a5, a6} and {a7, a8, a9}. A projection of
// {id, cat, a2} ships d(a3) and the other two groups a row — the proof
// derived by hand here — and a 3-of-10 answer is three D_P digests a row.
func TestHandBuiltColumnTreeVO(t *testing.T) {
	sch, err := workload.DefaultSpec(2).Schema()
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := workload.DefaultSpec(2).Tuples()
	if err != nil {
		t.Fatal(err)
	}
	acc := digest.MustNew(digest.DefaultParams())
	h := &handTree{acc: acc, key: signer(t), sch: sch}
	group := func(ds ...digest.Value) digest.Value {
		p := []byte{0x05}
		for _, d := range ds {
			p = append(p, d...)
		}
		sum := sha256.Sum256(p)
		return sum[:digest.Size]
	}
	rs := &vo.ResultSet{DB: sch.DB, Table: sch.Table, Columns: []string{"id", "cat", "a2"}}
	var dp [][]digest.Value // each row's proof
	for _, tup := range tuples {
		attrs, ut := orderedTuple(acc, sch, tup)
		h.uT = append(h.uT, ut)
		rs.Keys = append(rs.Keys, tup.Values[0])
		rs.Tuples = append(rs.Tuples, schema.NewTuple(tup.Values[0], tup.Values[1], tup.Values[2]))
		dp = append(dp, []digest.Value{attrs[3], group(attrs[4], attrs[5], attrs[6]), group(attrs[7], attrs[8], attrs[9])})
	}
	w := h.voAt(t, 1, h.node(1, h.uT...), record(2, 0, 2))
	for _, row := range dp {
		for _, d := range row {
			w.AppendDP(d)
		}
	}
	if err := h.verifier().Verify(rs, w); err != nil {
		t.Fatalf("hand-built column proofs rejected: %v", err)
	}
	// An attribute digest and a group digest of one row trade places.
	first, last := w.DPDigest(0), w.DPDigest(2)
	swapped := append(append(append([]byte(nil), last...), w.DP[digest.Size:2*digest.Size]...), first...)
	honest := w.DP
	w.DP = append(swapped, honest[3*digest.Size:]...)
	if err := h.verifier().Verify(rs, w); err == nil {
		t.Fatal("a row's column proof out of order accepted")
	}
	// One sibling too many or too few is refused: a row's proof runs
	// short, or a digest is left unused.
	for _, bad := range [][]byte{honest[digest.Size:], append(bytes.Clone(honest), honest[:digest.Size]...)} {
		w.DP = bad
		if err := h.verifier().Verify(rs, w); !errors.Is(err, ErrMalformed) {
			t.Fatalf("D_P of %d digests: %v, want ErrMalformed", len(bad)/digest.Size, err)
		}
	}
}

// TestKeyTypeIsChecked: a key's encoding is not type-tagged, so int64 20
// and the eight bytes 0x8000000000000014 hash alike. An answer relabelling
// its key as bytes is refused, where it was accepted and handed on to the
// caller (b43dc9b).
func TestKeyTypeIsChecked(t *testing.T) {
	b := buildTree(t, 300, 1024, nil)
	rs, w := b.query(t, 20, 22, []string{"cat"})
	if err := b.ver.Verify(rs, w); err != nil {
		t.Fatal(err)
	}
	rs.Keys[0] = schema.Bytes(rs.Keys[0].KeyBytes())
	if err := b.ver.Verify(rs, w); !errors.Is(err, ErrMalformed) {
		t.Fatalf("a bytes key for an int64 key column: %v, want ErrMalformed", err)
	}
}

// TestReturnedKeyColumnIsTheKey: the key column has no attribute digest
// — the tuple hash binds the key — so a returned key column is checked
// against the row's key, bit for bit, and a rewritten one is refused.
func TestReturnedKeyColumnIsTheKey(t *testing.T) {
	b := buildTree(t, 300, 1024, nil)
	rs, w := b.query(t, 20, 22, []string{"cat", "id"})
	if err := b.ver.Verify(rs, w); err != nil {
		t.Fatal(err)
	}
	rs.Tuples[1].Values[1] = schema.Int64(rs.Keys[1].I + 1)
	if err := b.ver.Verify(rs, w); err == nil {
		t.Fatal("a returned key column that is not the row's key accepted")
	}
	rs.Tuples[1].Values[1] = schema.Str("21")
	if err := b.ver.Verify(rs, w); !errors.Is(err, ErrMalformed) {
		t.Fatalf("a string in the int64 key column: %v, want ErrMalformed", err)
	}
}

func TestVerifierConfigErrors(t *testing.T) {
	h := buildHand(t, []string{"a"})
	rs := &vo.ResultSet{DB: "db", Table: "t", Columns: []string{"id", "val"}}
	w := h.voAt(t, 1, h.uT[0], record(1))

	bad := &Verifier{}
	if err := bad.Verify(rs, w); err == nil {
		t.Fatal("unconfigured verifier accepted input")
	}
	noKey := &Verifier{Acc: h.acc, Schema: h.sch}
	if err := noKey.Verify(rs, w); err == nil {
		t.Fatal("verifier with no trusted key accepted input")
	}
	// Wrong pinned key version.
	pk := h.key.Public()
	pk.Version = 5
	wrongVer := &Verifier{Keys: trusted(pk), Acc: h.acc, Schema: h.sch}
	if err := wrongVer.Verify(rs, w); !errors.Is(err, ErrKeyVersion) {
		t.Fatalf("wrong key version: %v", err)
	}
}

func TestVerifyRejectsTypeMismatch(t *testing.T) {
	h := buildHand(t, []string{"a"})
	rs := &vo.ResultSet{
		DB: "db", Table: "t",
		Columns: []string{"id", "val"},
		Keys:    []schema.Datum{h.tuples[0].Values[0]},
		Tuples:  []schema.Tuple{{Values: []schema.Datum{schema.Str("not-an-int"), h.tuples[0].Values[1]}}},
	}
	w := h.voAt(t, 1, h.node(1, h.uT...), record(1, 0, 1))
	if err := h.verifier().Verify(rs, w); !errors.Is(err, ErrMalformed) {
		t.Fatalf("type-mismatched tuple: %v, want ErrMalformed", err)
	}
}
