package verify

import (
	"errors"
	"sync"
	"testing"
	"time"

	"edgeauth/internal/digest"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/vo"
)

// These tests rebuild the commitment by hand — attribute and tuple
// digests, leaf and root digests, the root signature and the node records
// of a VO — without using the vbtree package, so they cross-check the
// verifier against an independent derivation of the ordered layout.

var (
	keyOnce sync.Once
	testKey *sig.PrivateKey
)

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

// orderedTuple computes a tuple's attribute digests and tuple digest
// (digest.AttrDigest, digest.TupleDigest).
func orderedTuple(acc *digest.Accumulator, sch *schema.Schema, tup schema.Tuple) (attrs []digest.Value, ut digest.Value) {
	flat := make([]byte, 0, len(tup.Values)*acc.Len())
	attrs = make([]digest.Value, len(tup.Values))
	for i, val := range tup.Values {
		attrs[i] = acc.AttrDigest(nil, i, val.CanonicalBytes())
		flat = append(flat, attrs[i]...)
	}
	return attrs, acc.TupleDigest(nil, tup.Key(sch).KeyBytes(), flat)
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
		TopDigest: sig.Signature(top),
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
	return &Verifier{Key: h.key.Public(), Acc: h.acc, Schema: h.sch}
}

func TestHandBuiltLeafLevelVO(t *testing.T) {
	// One leaf holding t0..t3; the query returns {t0, t2}; the tuple
	// digests of t1 and t3 are the leaf's proof, in D_S.
	h := buildHand(t, []string{"a", "b", "c", "d"})
	rs := h.rows(0, 2)
	w := h.voAt(t, 1, h.node(1, h.uT...), record(4, 0, 1, 2, 1))
	w.AppendDS(h.uT[1])
	w.AppendDS(h.uT[3])
	if err := h.verifier().Verify(rs, w); err != nil {
		t.Fatalf("hand-built leaf VO rejected: %v", err)
	}
	// Sanity: a wrong result value breaks it.
	rs.Tuples[0].Values[1] = schema.Str("tampered")
	if err := h.verifier().Verify(rs, w); err == nil {
		t.Fatal("tampered hand-built result accepted")
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
	// Dropping one D_P digest fails the count check.
	w.DP = w.DPDigest(0)
	if err := h.verifier().Verify(rs, w); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short D_P: %v, want ErrMalformed", err)
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
	wrongVer := &Verifier{Key: pk, Acc: h.acc, Schema: h.sch}
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
