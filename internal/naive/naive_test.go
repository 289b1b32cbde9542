package naive

import (
	"fmt"
	"sync"
	"testing"

	"edgeauth/internal/digest"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
)

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
		DB:    "edgedb",
		Table: "orders",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TypeInt64},
			{Name: "customer", Type: schema.TypeString},
			{Name: "amount", Type: schema.TypeFloat64},
		},
		Key: 0,
	}
}

func mkTuple(i int) schema.Tuple {
	return schema.NewTuple(
		schema.Int64(int64(i)),
		schema.Str(fmt.Sprintf("cust-%d", i%5)),
		schema.Float64(float64(i)*2.5),
	)
}

func buildStore(t testing.TB, n int) (*Store, *sig.PrivateKey, *digest.Accumulator) {
	t.Helper()
	k := signer(t)
	acc := digest.MustNew(digest.DefaultParams())
	tuples := make([]schema.Tuple, n)
	for i := range tuples {
		tuples[i] = mkTuple(i)
	}
	s, err := BuildStore(testSchema(), acc, k, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return s, k, acc
}

func i64(v int) *schema.Datum {
	d := schema.Int64(int64(v))
	return &d
}

func TestBuildStoreValidation(t *testing.T) {
	k := signer(t)
	acc := digest.MustNew(digest.DefaultParams())
	if _, err := BuildStore(testSchema(), acc, nil, nil); err == nil {
		t.Fatal("nil signer accepted")
	}
	if _, err := BuildStore(testSchema(), acc, k, []schema.Tuple{mkTuple(2), mkTuple(1)}); err == nil {
		t.Fatal("unsorted tuples accepted")
	}
	bad := mkTuple(0)
	bad.Values = bad.Values[:2]
	if _, err := BuildStore(testSchema(), acc, k, []schema.Tuple{bad}); err == nil {
		t.Fatal("short tuple accepted")
	}
}

func TestNaiveQueryAndVerify(t *testing.T) {
	s, k, acc := buildStore(t, 100)
	if s.Len() != 100 {
		t.Fatalf("Len = %d", s.Len())
	}
	rs, nv, err := s.RunQuery(Query{Lo: i64(10), Hi: i64(29)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Tuples) != 20 {
		t.Fatalf("got %d tuples", len(rs.Tuples))
	}
	if len(nv.TupleSigs) != 20 {
		t.Fatalf("VO has %d tuple digests", len(nv.TupleSigs))
	}
	if nv.NumDigests() != 20 {
		t.Fatalf("NumDigests = %d, want 20 (no projection)", nv.NumDigests())
	}
	if err := Verify(testSchema(), acc, k.Public(), rs, nv); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestNaiveProjection(t *testing.T) {
	s, k, acc := buildStore(t, 50)
	rs, nv, err := s.RunQuery(Query{Lo: i64(0), Hi: i64(9), Project: []string{"id"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 10 tuple digests + 10 tuples × 2 filtered attributes.
	if nv.NumDigests() != 10+20 {
		t.Fatalf("NumDigests = %d, want 30", nv.NumDigests())
	}
	if err := Verify(testSchema(), acc, k.Public(), rs, nv); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if nv.WireSize() <= 0 {
		t.Fatal("WireSize must be positive")
	}
}

func TestNaiveFilter(t *testing.T) {
	s, k, acc := buildStore(t, 100)
	rs, nv, err := s.RunQuery(Query{
		Filter: func(tp schema.Tuple) bool { return tp.Values[1].S == "cust-3" },
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Tuples) != 20 {
		t.Fatalf("filter matched %d", len(rs.Tuples))
	}
	if err := Verify(testSchema(), acc, k.Public(), rs, nv); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestNaiveTamperRejected(t *testing.T) {
	s, k, acc := buildStore(t, 60)
	rs, nv, err := s.RunQuery(Query{Lo: i64(5), Hi: i64(15)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rs.Tuples[3].Values[2] = schema.Float64(1e9)
	if err := Verify(testSchema(), acc, k.Public(), rs, nv); err == nil {
		t.Fatal("tampered value accepted")
	}
}

func TestNaiveForgedSigRejected(t *testing.T) {
	s, k, acc := buildStore(t, 60)
	rs, nv, err := s.RunQuery(Query{Lo: i64(5), Hi: i64(15), Project: []string{"id"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	nv.FilteredSigs[0][0][5] ^= 0x80
	if err := Verify(testSchema(), acc, k.Public(), rs, nv); err == nil {
		t.Fatal("forged filtered-attribute signature accepted")
	}
}

func TestNaiveCannotDetectSpuriousSignedTuple(t *testing.T) {
	// The known weakness: a tuple legally signed by the central server can
	// be injected into any result, and Naive verification still passes.
	// (The VB-tree's enveloping subtree is what closes this hole.)
	s, k, acc := buildStore(t, 60)
	rs, nv, err := s.RunQuery(Query{Lo: i64(5), Hi: i64(9)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Steal tuple 50 (outside the range) with its genuine signature.
	rs2, nv2, err := s.RunQuery(Query{Lo: i64(50), Hi: i64(50)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rs.Keys = append(rs.Keys, rs2.Keys[0])
	rs.Tuples = append(rs.Tuples, rs2.Tuples[0])
	nv.TupleSigs = append(nv.TupleSigs, nv2.TupleSigs[0])
	nv.FilteredSigs = append(nv.FilteredSigs, nv2.FilteredSigs[0])
	if err := Verify(testSchema(), acc, k.Public(), rs, nv); err != nil {
		t.Fatalf("documented naive weakness changed behaviour: %v", err)
	}
}

func TestNaiveVerifyValidation(t *testing.T) {
	s, k, acc := buildStore(t, 20)
	rs, nv, err := s.RunQuery(Query{Lo: i64(0), Hi: i64(5)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Mismatched digest count.
	short := &VO{TupleSigs: nv.TupleSigs[:2], FilteredSigs: nv.FilteredSigs[:2]}
	if err := Verify(testSchema(), acc, k.Public(), rs, short); err == nil {
		t.Fatal("short VO accepted")
	}
	// Wrong table.
	rs.Table = "other"
	if err := Verify(testSchema(), acc, k.Public(), rs, nv); err == nil {
		t.Fatal("wrong table accepted")
	}
}

func TestNaiveQueryValidation(t *testing.T) {
	s, _, _ := buildStore(t, 10)
	if _, _, err := s.RunQuery(Query{Project: []string{"ghost"}}, 0); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, _, err := s.RunQuery(Query{Project: []string{}}, 0); err == nil {
		t.Fatal("empty projection accepted")
	}
	if _, _, err := s.RunQuery(Query{Project: []string{"id", "id"}}, 0); err == nil {
		t.Fatal("duplicate projection accepted")
	}
}
