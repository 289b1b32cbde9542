package naive

import (
	"crypto/sha256"
	"math/rand"
	"testing"
	"testing/quick"

	"edgeauth/internal/digest"
)

// combine coalesces a set of digests into one, Π g(dᵢ) (mod m), as a
// tuple's verification does: every digest added to one Acc, its value
// read once.
func combine(c *digest.Counters, ds ...digest.Value) (digest.Value, error) {
	acc := NewAcc(c)
	for _, d := range ds {
		if err := acc.Add(d); err != nil {
			return nil, err
		}
	}
	return acc.Value(), nil
}

// hashBytes is a domain-separated digest of data: the framing of
// HashAttribute over one labelled field, and the generator of the inputs
// the golden vectors were captured over.
func hashBytes(domain string, data []byte) digest.Value {
	buf := appendField(nil, domain)
	return digestFromHash(sha256.Sum256(append(buf, data...)))
}

func TestHashAttributeDeterministic(t *testing.T) {
	d1 := HashAttribute(nil, "db", "tbl", "col", []byte("k1"), []byte("v1"))
	d2 := HashAttribute(nil, "db", "tbl", "col", []byte("k1"), []byte("v1"))
	if !d1.Equal(d2) {
		t.Fatalf("same inputs produced different digests: %v vs %v", d1, d2)
	}
	if len(d1) != digest.Size {
		t.Fatalf("digest length %d, want %d", len(d1), digest.Size)
	}
}

func TestHashAttributeDomainSeparation(t *testing.T) {
	base := HashAttribute(nil, "db", "tbl", "col", []byte("key"), []byte("val"))
	variants := []digest.Value{
		HashAttribute(nil, "db2", "tbl", "col", []byte("key"), []byte("val")),
		HashAttribute(nil, "db", "tbl2", "col", []byte("key"), []byte("val")),
		HashAttribute(nil, "db", "tbl", "col2", []byte("key"), []byte("val")),
		HashAttribute(nil, "db", "tbl", "col", []byte("key2"), []byte("val")),
		HashAttribute(nil, "db", "tbl", "col", []byte("key"), []byte("val2")),
		// Concatenation-ambiguity probes: moving a byte across a field
		// boundary must change the digest.
		HashAttribute(nil, "db", "tbl", "colk", []byte("ey"), []byte("val")),
		HashAttribute(nil, "db", "tbl", "col", []byte("keyv"), []byte("al")),
	}
	for i, v := range variants {
		if base.Equal(v) {
			t.Errorf("variant %d collided with base digest", i)
		}
	}
}

func TestDigestsAreUnits(t *testing.T) {
	for i := 0; i < 64; i++ {
		d := HashAttribute(nil, "db", "tbl", "unit-test", nil, []byte{byte(i)})
		if d[len(d)-1]&1 == 0 {
			t.Fatalf("digest %d is even, not a unit: %v", i, d)
		}
	}
}

func TestCombineCommutative(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(n%8) + 2
		ds := make([]digest.Value, k)
		for i := range ds {
			buf := make([]byte, 12)
			rng.Read(buf)
			ds[i] = hashBytes("quick", buf)
		}
		want, err := combine(nil, ds...)
		if err != nil {
			return false
		}
		perm := rng.Perm(k)
		shuffled := make([]digest.Value, k)
		for i, p := range perm {
			shuffled[i] = ds[p]
		}
		got, err := combine(nil, shuffled...)
		if err != nil {
			return false
		}
		return want.Equal(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCombineEmptyIsIdentity(t *testing.T) {
	got := NewAcc(nil).Value()
	one := make(digest.Value, digest.Size)
	one[len(one)-1] = 1
	if !got.Equal(one) {
		t.Fatalf("empty combine = %v, want identity %v", got, one)
	}
}

func TestValueLengthMismatchRejected(t *testing.T) {
	if err := NewAcc(nil).Add(digest.Value{1, 2, 3}); err == nil {
		t.Fatal("Add accepted a short value")
	}
	if _, err := combine(nil, digest.Value(make([]byte, 99))); err == nil {
		t.Fatal("combine accepted a mis-sized value")
	}
	if err := NewAcc(nil).Add(digest.Value{}); err == nil {
		t.Fatal("Add accepted an empty value")
	}
}

func TestCountersTrackOps(t *testing.T) {
	var c digest.Counters
	d1 := HashAttribute(&c, "db", "tbl", "ctr", nil, []byte("1"))
	d2 := HashAttribute(&c, "db", "tbl", "ctr", nil, []byte("2"))
	if _, err := combine(&c, d1, d2); err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	if s.HashOps != 2 {
		t.Errorf("HashOps = %d, want 2", s.HashOps)
	}
	// One per digest multiplied in, one for the single application of g.
	if s.CombineOps != 3 {
		t.Errorf("CombineOps = %d, want 3 (2 multiply-ins + 1 g)", s.CombineOps)
	}
	// Reading the value again owes no second g; adding after a read owes
	// one more.
	acc := NewAcc(&c)
	if err := acc.Add(d1); err != nil {
		t.Fatal(err)
	}
	acc.Value()
	acc.Value()
	if err := acc.Add(d2); err != nil {
		t.Fatal(err)
	}
	acc.Value()
	if got := c.Snapshot().CombineOps - s.CombineOps; got != 4 {
		t.Errorf("Add, Value, Value, Add, Value counted %d combines, want 4", got)
	}
}

func BenchmarkHashAttribute(b *testing.B) {
	key := []byte("0000000000000042")
	val := []byte("some attribute value")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		HashAttribute(nil, "benchdb", "orders", "amount", key, val)
	}
}

func BenchmarkCombine10(b *testing.B) {
	ds := make([]digest.Value, 10)
	for i := range ds {
		ds[i] = hashBytes("bench", []byte{byte(i)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := combine(nil, ds...); err != nil {
			b.Fatal(err)
		}
	}
}
