package digest

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// boundaryValues are the inputs where a limb kernel goes wrong first:
// all-ones (every carry chain runs to the top), single bits on either
// side of the limb boundary, a full low limb under an empty high one, and
// a full high limb over an empty low one. Evens are included on purpose —
// G, Add and AddCombined accept non-units.
func boundaryValues() []Value {
	mk := func(fill func(v Value)) Value {
		v := make(Value, size)
		fill(v)
		return v
	}
	setBit := func(v Value, bit int) { v[size-1-bit/8] |= 1 << (bit % 8) }
	vals := []Value{
		mk(func(v Value) {}),                // 0
		mk(func(v Value) { v[size-1] = 1 }), // 1
		mk(func(v Value) { v[size-1] = 2 }), // smallest even non-zero
		mk(func(v Value) { // all ones
			for i := range v {
				v[i] = 0xFF
			}
		}),
		mk(func(v Value) { setBit(v, 8*size-1); v[size-1] |= 1 }), // top bit + unit bit
		mk(func(v Value) { // high limb full, low limb empty but odd
			for i := 0; i < 8; i++ {
				v[i] = 0xFF
			}
			v[size-1] |= 1
		}),
	}
	for bit := 63; bit < 8*size; bit += 64 {
		vals = append(vals, mk(func(v Value) { setBit(v, bit); v[size-1] |= 1 }))
		if bit+1 < 8*size {
			vals = append(vals, mk(func(v Value) { setBit(v, bit+1); v[size-1] |= 1 }))
		}
		vals = append(vals, mk(func(v Value) { // 2^(bit+1) − 1: every limb up to here full
			for b := 0; b <= bit; b++ {
				setBit(v, b)
			}
		}))
	}
	return vals
}

func randomValues(rng *rand.Rand, n int) []Value {
	vals := make([]Value, n)
	for i := range vals {
		vals[i] = make(Value, 16)
		rng.Read(vals[i])
	}
	return vals
}

// diffCheck drives every arithmetic entry point of the Accumulator over
// vals and requires byte-equality with the math/big reference at each
// step.
func diffCheck(t testing.TB, vals []Value) {
	t.Helper()
	a, r := MustNew(DefaultParams()), newRef()
	eq := func(what string, got Value, err error, want Value) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s:\n kernel %x\n    big %x", what, []byte(got), []byte(want))
		}
	}
	for i, v := range vals {
		got, err := a.G(v)
		eq(fmt.Sprintf("G(%x)", []byte(v)), got, err, r.g(v))
		for k := 0; k <= 3; k++ {
			got, err = a.Lift(v, k)
			eq(fmt.Sprintf("Lift(%x, %d)", []byte(v), k), got, err, r.lift(v, k))
		}
		w := vals[(i+1)%len(vals)]
		prod := a.NewAcc()
		if err := prod.AddCombined(v); err != nil {
			t.Fatal(err)
		}
		err = prod.AddCombined(w)
		eq(fmt.Sprintf("AddCombined(%x)·AddCombined(%x)", []byte(v), []byte(w)), prod.Value(), err, r.mul(v, w))
	}
	got, err := a.Combine(vals...)
	eq("Combine", got, err, r.combine(vals...))

	// One Acc through every operation, its value read (and so g applied)
	// at uneven points, against a reference that never defers anything.
	acc, racc := a.NewAcc(), r.newAcc()
	eq("NewAcc.Value", acc.Value(), nil, racc.value())
	for i, v := range vals {
		switch i % 3 {
		case 0, 1:
			if err := acc.Add(v); err != nil {
				t.Fatal(err)
			}
			racc.add(v)
		case 2:
			if err := acc.AddCombined(v); err != nil {
				t.Fatal(err)
			}
			racc.addCombined(v)
		}
		if i%4 == 3 {
			eq(fmt.Sprintf("Acc.Value after %d", i+1), acc.Value(), nil, racc.value())
		}
	}
	eq("Acc.Value", acc.Value(), nil, racc.value())
}

// TestKernelMatchesBig is the differential property: on the boundary
// inputs and on random ones, the limb kernel and math/big agree on every
// byte.
func TestKernelMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	diffCheck(t, append(boundaryValues(), randomValues(rng, 16)...))
	for i := 0; i < 8; i++ {
		diffCheck(t, randomValues(rng, 16))
	}
}

// TestHashMatchesBig pins the hash path — framing, truncation, unit
// coercion — to the reference.
func TestHashMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a, r := MustNew(DefaultParams()), newRef()
	for i := 0; i < 200; i++ {
		// Long fields push the preimage past the stack buffer.
		key, val := make([]byte, rng.Intn(40)), make([]byte, rng.Intn(400))
		rng.Read(key)
		rng.Read(val)
		if got, want := a.HashAttribute("db", "table", "attr", key, val), r.hashAttribute("db", "table", "attr", key, val); !bytes.Equal(got, want) {
			t.Fatalf("HashAttribute: %x, reference %x", []byte(got), []byte(want))
		}
		if got, want := a.HashBytes("domain", val), r.hashBytes("domain", val); !bytes.Equal(got, want) {
			t.Fatalf("HashBytes: %x, reference %x", []byte(got), []byte(want))
		}
	}
}

// FuzzKernelVsBig lets the fuzzer pick the operands.
func FuzzKernelVsBig(f *testing.F) {
	f.Add([]byte("seed"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Four operands cut from data, cycling; the first two forced to be
		// a unit and a non-unit.
		vals := make([]Value, 4)
		for i := range vals {
			vals[i] = make(Value, size)
			for j := range vals[i] {
				if len(data) > 0 {
					vals[i][j] = data[(i*size+j)%len(data)] + byte(i)
				}
			}
		}
		vals[0][size-1] |= 1
		vals[1][size-1] &^= 1
		diffCheck(t, vals)
	})
}

// TestAccAllocations guards the win where it was made: folding a digest
// in allocates nothing, and an Acc costs a constant number of allocations
// however many digests pass through it — two: the Acc, whose done and
// pending products are inline limbs, and the Value it returns.
func TestAccAllocations(t *testing.T) {
	a := testAcc(t)
	d := a.HashBytes("alloc", []byte("d"))
	acc := a.NewAcc()
	if n := testing.AllocsPerRun(100, func() { _ = acc.Add(d) }); n != 0 {
		t.Errorf("Acc.Add allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = acc.AddCombined(d) }); n != 0 {
		t.Errorf("Acc.AddCombined allocates %v times, want 0", n)
	}
	perAcc := func(adds int) float64 {
		return testing.AllocsPerRun(50, func() {
			acc := a.NewAcc()
			for i := 0; i < adds; i++ {
				_ = acc.Add(d)
			}
			_ = acc.Value()
		})
	}
	if one, many := perAcc(1), perAcc(200); one != many || one != 2 {
		t.Errorf("an Acc costs %v allocations for 1 digest and %v for 200; want 2 for both (Acc with inline limbs, Value)", one, many)
	}
	key, val := []byte("0000000000000042"), []byte("some attribute value")
	if n := testing.AllocsPerRun(100, func() { _ = a.HashAttribute("benchdb", "orders", "amount", key, val) }); n != 1 {
		t.Errorf("HashAttribute allocates %v times, want 1 (the returned Value)", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = a.HashBytes("bench", val) }); n != 1 {
		t.Errorf("HashBytes allocates %v times, want 1 (the returned Value)", n)
	}
}

func BenchmarkAccAdd(b *testing.B) {
	a := MustNew(DefaultParams())
	d := a.HashBytes("bench", []byte("d"))
	acc := a.NewAcc()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := acc.Add(d); err != nil {
			b.Fatal(err)
		}
	}
	benchSink = acc.Value()
}

func BenchmarkLift(b *testing.B) {
	a := MustNew(DefaultParams())
	d := a.HashBytes("bench", []byte("d"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v, err := a.Lift(d, 1)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = v
	}
}

var benchSink Value
