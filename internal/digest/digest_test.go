package digest

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testAcc(t *testing.T) *Accumulator {
	t.Helper()
	a, err := New(DefaultParams())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return a
}

// TestNewValidation: the ring is a constant of the code, so every Params
// builds the same accumulator, counted or not.
func TestNewValidation(t *testing.T) {
	for name, p := range map[string]Params{"defaults": DefaultParams(), "counted": {Counters: new(Counters)}} {
		t.Run(name, func(t *testing.T) {
			a, err := New(p)
			if err != nil {
				t.Fatalf("New(%+v): %v", p, err)
			}
			if a.Len() != 16 || a.Counters() != p.Counters {
				t.Fatalf("New(%+v): %d-byte digests, counters %p", p, a.Len(), a.Counters())
			}
		})
	}
}

func TestHashAttributeDeterministic(t *testing.T) {
	a := testAcc(t)
	d1 := a.HashAttribute("db", "tbl", "col", []byte("k1"), []byte("v1"))
	d2 := a.HashAttribute("db", "tbl", "col", []byte("k1"), []byte("v1"))
	if !d1.Equal(d2) {
		t.Fatalf("same inputs produced different digests: %v vs %v", d1, d2)
	}
	if len(d1) != a.Len() {
		t.Fatalf("digest length %d, want %d", len(d1), a.Len())
	}
}

func TestHashAttributeDomainSeparation(t *testing.T) {
	a := testAcc(t)
	base := a.HashAttribute("db", "tbl", "col", []byte("key"), []byte("val"))
	variants := []Value{
		a.HashAttribute("db2", "tbl", "col", []byte("key"), []byte("val")),
		a.HashAttribute("db", "tbl2", "col", []byte("key"), []byte("val")),
		a.HashAttribute("db", "tbl", "col2", []byte("key"), []byte("val")),
		a.HashAttribute("db", "tbl", "col", []byte("key2"), []byte("val")),
		a.HashAttribute("db", "tbl", "col", []byte("key"), []byte("val2")),
		// Concatenation-ambiguity probes: moving a byte across a field
		// boundary must change the digest.
		a.HashAttribute("db", "tbl", "colk", []byte("ey"), []byte("val")),
		a.HashAttribute("db", "tbl", "col", []byte("keyv"), []byte("al")),
	}
	for i, v := range variants {
		if base.Equal(v) {
			t.Errorf("variant %d collided with base digest", i)
		}
	}
}

func TestDigestsAreUnits(t *testing.T) {
	a := testAcc(t)
	for i := 0; i < 64; i++ {
		d := a.HashBytes("unit-test", []byte{byte(i)})
		if d[len(d)-1]&1 == 0 {
			t.Fatalf("digest %d is even, not a unit: %v", i, d)
		}
	}
}

func TestCombineCommutative(t *testing.T) {
	a := testAcc(t)
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(n%8) + 2
		ds := make([]Value, k)
		for i := range ds {
			buf := make([]byte, 12)
			rng.Read(buf)
			ds[i] = a.HashBytes("quick", buf)
		}
		want, err := a.Combine(ds...)
		if err != nil {
			return false
		}
		perm := rng.Perm(k)
		shuffled := make([]Value, k)
		for i, p := range perm {
			shuffled[i] = ds[p]
		}
		got, err := a.Combine(shuffled...)
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
	a := testAcc(t)
	got, err := a.Combine()
	if err != nil {
		t.Fatal(err)
	}
	one := make(Value, a.Len())
	one[len(one)-1] = 1
	if !got.Equal(one) {
		t.Fatalf("empty combine = %v, want identity %v", got, one)
	}
}

func TestCombineSingleEqualsG(t *testing.T) {
	a := testAcc(t)
	d := a.HashBytes("single", []byte("x"))
	g, err := a.G(d)
	if err != nil {
		t.Fatal(err)
	}
	c, err := a.Combine(d)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(c) {
		t.Fatalf("Combine(d)=%v, want g(d)=%v", c, g)
	}
}

func TestAddCombinedMatchesProductAlgebra(t *testing.T) {
	a := testAcc(t)
	d1 := a.HashBytes("ac", []byte("a"))
	d2 := a.HashBytes("ac", []byte("b"))
	g1, _ := a.G(d1)
	g2, _ := a.G(d2)

	acc := a.NewAcc()
	if err := acc.AddCombined(g1); err != nil {
		t.Fatal(err)
	}
	if err := acc.AddCombined(g2); err != nil {
		t.Fatal(err)
	}
	want, err := a.Combine(d1, d2)
	if err != nil {
		t.Fatal(err)
	}
	if !acc.Value().Equal(want) {
		t.Fatalf("AddCombined product %v != Combine %v", acc.Value(), want)
	}
}

func TestValueLengthMismatchRejected(t *testing.T) {
	a := testAcc(t)
	if _, err := a.G(Value{1, 2, 3}); err == nil {
		t.Fatal("G accepted a short value")
	}
	if _, err := a.Combine(Value(make([]byte, 99))); err == nil {
		t.Fatal("Combine accepted a mis-sized value")
	}
	if err := a.NewAcc().AddCombined(Value{}); err == nil {
		t.Fatal("AddCombined accepted an empty value")
	}
}

func TestCountersTrackOps(t *testing.T) {
	var c Counters
	p := DefaultParams()
	p.Counters = &c
	a := MustNew(p)
	d1 := a.HashBytes("ctr", []byte("1"))
	d2 := a.HashBytes("ctr", []byte("2"))
	if _, err := a.Combine(d1, d2); err != nil {
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
	// Reading the value again owes no second g; an Acc that only absorbs
	// combined digests owes none at all; Lift counts its k applications.
	acc := a.NewAcc()
	if err := acc.Add(d1); err != nil {
		t.Fatal(err)
	}
	acc.Value()
	acc.Value()
	if err := acc.AddCombined(d2); err != nil {
		t.Fatal(err)
	}
	acc.Value()
	if got := c.Snapshot().CombineOps - s.CombineOps; got != 3 {
		t.Errorf("Add, Value, Value, AddCombined, Value counted %d combines, want 3", got)
	}
	s = c.Snapshot()
	if _, err := a.Lift(d1, 4); err != nil {
		t.Fatal(err)
	}
	if got := c.Snapshot().CombineOps - s.CombineOps; got != 4 {
		t.Errorf("Lift(·, 4) counted %d combines, want 4", got)
	}
	c.Reset()
	if s := c.Snapshot(); s.HashOps != 0 || s.CombineOps != 0 || s.RecoverOps != 0 {
		t.Errorf("Reset left counters non-zero: %+v", s)
	}
}

func TestCounterSnapshotSub(t *testing.T) {
	a := CounterSnapshot{HashOps: 10, CombineOps: 7, RecoverOps: 3}
	b := CounterSnapshot{HashOps: 4, CombineOps: 2, RecoverOps: 1}
	d := a.Sub(b)
	if d.HashOps != 6 || d.CombineOps != 5 || d.RecoverOps != 2 {
		t.Fatalf("Sub = %+v", d)
	}
}

func TestValueCloneIndependent(t *testing.T) {
	a := testAcc(t)
	d := a.HashBytes("clone", []byte("x"))
	c := d.Clone()
	c[0] ^= 0xFF
	if d.Equal(c) {
		t.Fatal("Clone shares storage with original")
	}
}

func BenchmarkHashAttribute(b *testing.B) {
	a := MustNew(DefaultParams())
	key := []byte("0000000000000042")
	val := []byte("some attribute value")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.HashAttribute("benchdb", "orders", "amount", key, val)
	}
}

func BenchmarkCombine10(b *testing.B) {
	a := MustNew(DefaultParams())
	ds := make([]Value, 10)
	for i := range ds {
		ds[i] = a.HashBytes("bench", []byte{byte(i)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.Combine(ds...); err != nil {
			b.Fatal(err)
		}
	}
}
