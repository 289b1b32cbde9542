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

// These tests rebuild the verification equation by hand — attribute
// hashes, tuple digests, leaf and root digests, signatures — without using
// the vbtree package, so they cross-check the verifier's lift algebra
// against an independent derivation of the paper's formulas (1)–(5).

var (
	keyOnce sync.Once
	testKey *sig.PrivateKey
)

func signer(t testing.TB) *sig.PrivateKey {
	t.Helper()
	keyOnce.Do(func() { testKey = sig.MustGenerateKey(512) })
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

// handTree builds digests for tuples (id=i, val=v[i]) grouped into leaves,
// exactly per formulas (1)-(3).
type handTree struct {
	acc    *digest.Accumulator
	key    *sig.PrivateKey
	sch    *schema.Schema
	tuples []schema.Tuple
	uT     []digest.Value  // unsigned tuple digests
	dT     []sig.Signature // signed tuple digests
	attrs  [][]digest.Value
	aSigs  [][]sig.Signature
}

func buildHand(t *testing.T, vals []string) *handTree {
	t.Helper()
	return buildHandWith(t, digest.MustNew(digest.DefaultParams()), vals)
}

// buildHandWith is buildHand under a caller-chosen accumulator.
func buildHandWith(t *testing.T, acc *digest.Accumulator, vals []string) *handTree {
	t.Helper()
	h := &handTree{
		acc: acc,
		key: signer(t),
		sch: testSchema(),
	}
	for i, v := range vals {
		tup := schema.NewTuple(schema.Int64(int64(i)), schema.Str(v))
		kb := tup.Key(h.sch).KeyBytes()
		var as []digest.Value
		var asig []sig.Signature
		acc := h.acc.NewAcc()
		for c, val := range tup.Values {
			d := h.acc.HashAttribute(h.sch.DB, h.sch.Table, h.sch.Columns[c].Name, kb, val.CanonicalBytes())
			as = append(as, d)
			s, err := h.key.Sign(d)
			if err != nil {
				t.Fatal(err)
			}
			asig = append(asig, s)
			if err := acc.Add(d); err != nil {
				t.Fatal(err)
			}
		}
		ut := acc.Value()
		dt, err := h.key.Sign(ut)
		if err != nil {
			t.Fatal(err)
		}
		h.tuples = append(h.tuples, tup)
		h.uT = append(h.uT, ut)
		h.dT = append(h.dT, dt)
		h.attrs = append(h.attrs, as)
		h.aSigs = append(h.aSigs, asig)
	}
	return h
}

// combine folds unsigned digests per formula (3).
func (h *handTree) combine(t *testing.T, us ...digest.Value) digest.Value {
	t.Helper()
	v, err := h.acc.Combine(us...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func (h *handTree) sign(t *testing.T, u digest.Value) sig.Signature {
	t.Helper()
	s, err := h.key.Sign(u)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func (h *handTree) verifier() *Verifier {
	return &Verifier{Key: h.key.Public(), Acc: h.acc, Schema: h.sch}
}

func TestHandBuiltLeafLevelVO(t *testing.T) {
	// One leaf holding t0..t3; query returns {t0, t2}; t1 and t3 are
	// filtered tuples in D_S at lift L = 1.
	h := buildHand(t, []string{"a", "b", "c", "d"})
	uLeaf := h.combine(t, h.uT...)
	rs := &vo.ResultSet{
		DB: "db", Table: "t",
		Columns: []string{"id", "val"},
		Keys:    []schema.Datum{h.tuples[0].Values[0], h.tuples[2].Values[0]},
		Tuples:  []schema.Tuple{h.tuples[0], h.tuples[2]},
	}
	w := &vo.VO{
		Timestamp: time.Now().Unix(),
		TopLevel:  1,
		TopDigest: h.sign(t, uLeaf),
	}
	w.AppendDS(h.dT[1], 1)
	w.AppendDS(h.dT[3], 1)
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
	// Two leaves: L1 = {t0,t1}, L2 = {t2,t3}; root combines them.
	// The query returns the whole of L1; L2 is a filtered branch at
	// lift = L - 1 = 1; tuples of L1 contribute at implicit lift L = 2.
	h := buildHand(t, []string{"a", "b", "c", "d"})
	uL1 := h.combine(t, h.uT[0], h.uT[1])
	uL2 := h.combine(t, h.uT[2], h.uT[3])
	uRoot := h.combine(t, uL1, uL2)
	rs := &vo.ResultSet{
		DB: "db", Table: "t",
		Columns: []string{"id", "val"},
		Keys:    []schema.Datum{h.tuples[0].Values[0], h.tuples[1].Values[0]},
		Tuples:  []schema.Tuple{h.tuples[0], h.tuples[1]},
	}
	w := &vo.VO{
		Timestamp: time.Now().Unix(),
		TopLevel:  2,
		TopDigest: h.sign(t, uRoot),
	}
	w.AppendDS(h.sign(t, uL2), 1)
	if err := h.verifier().Verify(rs, w); err != nil {
		t.Fatalf("hand-built two-level VO rejected: %v", err)
	}
	// Mixed lifts: result {t0}, filtered tuple t1 at lift 2, branch L2 at
	// lift 1.
	rs2 := &vo.ResultSet{
		DB: "db", Table: "t",
		Columns: []string{"id", "val"},
		Keys:    []schema.Datum{h.tuples[0].Values[0]},
		Tuples:  []schema.Tuple{h.tuples[0]},
	}
	w2 := &vo.VO{
		Timestamp: time.Now().Unix(),
		TopLevel:  2,
		TopDigest: h.sign(t, uRoot),
	}
	w2.AppendDS(h.dT[1], 2)
	w2.AppendDS(h.sign(t, uL2), 1)
	if err := h.verifier().Verify(rs2, w2); err != nil {
		t.Fatalf("mixed-lift VO rejected: %v", err)
	}
	// Wrong lift on the filtered tuple must fail.
	w2.SetDSLift(0, 1)
	if err := h.verifier().Verify(rs2, w2); err == nil {
		t.Fatal("wrong lift accepted")
	}
}

func TestHandBuiltProjectionVO(t *testing.T) {
	// Single leaf; query projects to {id}; "val" digests travel in D_P
	// (formula (5): they get lift L + 1 via the attribute product).
	h := buildHand(t, []string{"a", "b"})
	uLeaf := h.combine(t, h.uT...)
	rs := &vo.ResultSet{
		DB: "db", Table: "t",
		Columns: []string{"id"},
		Keys:    []schema.Datum{h.tuples[0].Values[0], h.tuples[1].Values[0]},
		Tuples: []schema.Tuple{
			{Values: []schema.Datum{h.tuples[0].Values[0]}},
			{Values: []schema.Datum{h.tuples[1].Values[0]}},
		},
	}
	w := &vo.VO{
		Timestamp: time.Now().Unix(),
		TopLevel:  1,
		TopDigest: h.sign(t, uLeaf),
	}
	w.AppendDP(h.aSigs[0][1])
	w.AppendDP(h.aSigs[1][1])
	if err := h.verifier().Verify(rs, w); err != nil {
		t.Fatalf("hand-built projection VO rejected: %v", err)
	}
	// D_P digests are order-free (commutativity): swapped order passes.
	w.DP = nil
	w.AppendDP(h.aSigs[1][1])
	w.AppendDP(h.aSigs[0][1])
	if err := h.verifier().Verify(rs, w); err != nil {
		t.Fatalf("reordered D_P rejected: %v", err)
	}
	// Dropping one D_P digest fails the count check.
	w.DP = w.DP[:w.Width]
	if err := h.verifier().Verify(rs, w); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short D_P: %v, want ErrMalformed", err)
	}
}

func TestVerifierConfigErrors(t *testing.T) {
	h := buildHand(t, []string{"a"})
	rs := &vo.ResultSet{DB: "db", Table: "t", Columns: []string{"id", "val"}}
	w := &vo.VO{Timestamp: time.Now().Unix(), TopLevel: 1, TopDigest: h.dT[0]}

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

func TestVerifyTupleHandBuilt(t *testing.T) {
	h := buildHand(t, []string{"x"})
	st := &vo.StoredTuple{Tuple: h.tuples[0], AttrSigs: h.aSigs[0]}
	v := h.verifier()
	if err := v.VerifyTuple(st, h.dT[0], h.key.Public()); err != nil {
		t.Fatalf("VerifyTuple rejected authentic tuple: %v", err)
	}
	// Wrong tuple signature.
	if err := v.VerifyTuple(st, h.aSigs[0][0], h.key.Public()); err == nil {
		t.Fatal("mismatched tuple signature accepted")
	}
	// Tampered value.
	st.Tuple.Values[1] = schema.Str("oops")
	if err := v.VerifyTuple(st, h.dT[0], h.key.Public()); err == nil {
		t.Fatal("tampered tuple accepted")
	}
	// Signature count mismatch.
	st2 := &vo.StoredTuple{Tuple: h.tuples[0], AttrSigs: h.aSigs[0][:1]}
	if err := v.VerifyTuple(st2, h.dT[0], h.key.Public()); err == nil {
		t.Fatal("short signature list accepted")
	}
}

func TestVerifyRejectsTypeMismatch(t *testing.T) {
	h := buildHand(t, []string{"a"})
	uLeaf := h.combine(t, h.uT...)
	rs := &vo.ResultSet{
		DB: "db", Table: "t",
		Columns: []string{"id", "val"},
		Keys:    []schema.Datum{h.tuples[0].Values[0]},
		Tuples:  []schema.Tuple{{Values: []schema.Datum{schema.Str("not-an-int"), h.tuples[0].Values[1]}}},
	}
	w := &vo.VO{Timestamp: time.Now().Unix(), TopLevel: 1, TopDigest: h.sign(t, uLeaf)}
	if err := h.verifier().Verify(rs, w); !errors.Is(err, ErrMalformed) {
		t.Fatalf("type-mismatched tuple: %v, want ErrMalformed", err)
	}
}
