package naive

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"edgeauth/internal/digest"
)

// size is the digest width the kernel's limbs hold.
const size = digest.Size

// Value is the digest type the kernel loads and stores.
type Value = digest.Value

// lift applies g to v k times, g^k(v), over the kernel: how a verifier of
// the paper's multi-level products lifted a subtree's combined digest.
func lift(v Value, k int) Value {
	x := load(v)
	for i := 0; i < k; i++ {
		x = x.g()
	}
	out := make(Value, size)
	x.store(out)
	return out
}

// boundaryValues are the inputs where a limb kernel goes wrong first:
// all-ones (every carry chain runs to the top), single bits on either
// side of the limb boundary, a full low limb under an empty high one, and
// a full high limb over an empty low one. Evens are included on purpose —
// g, mul and Add accept non-units.
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

// diffCheck drives every arithmetic entry point of the kernel and the Acc
// over vals and requires byte-equality with the math/big reference at
// each step.
func diffCheck(t testing.TB, vals []Value) {
	t.Helper()
	r := newRef()
	eq := func(what string, got, want Value) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s:\n kernel %x\n    big %x", what, []byte(got), []byte(want))
		}
	}
	for i, v := range vals {
		eq(fmt.Sprintf("g(%x)", []byte(v)), lift(v, 1), r.g(v))
		for k := 0; k <= 3; k++ {
			eq(fmt.Sprintf("lift(%x, %d)", []byte(v), k), lift(v, k), r.lift(v, k))
		}
		w := vals[(i+1)%len(vals)]
		prod := make(Value, size)
		mul(load(v), load(w)).store(prod)
		eq(fmt.Sprintf("mul(%x, %x)", []byte(v), []byte(w)), prod, r.mul(v, w))
	}
	got, err := combine(nil, vals...)
	if err != nil {
		t.Fatal(err)
	}
	eq("combine", got, r.combine(vals...))

	// One Acc, its value read (and so g applied) at uneven points,
	// against a reference that never defers anything.
	acc, racc := NewAcc(nil), r.newAcc()
	eq("NewAcc.Value", acc.Value(), racc.value())
	for i, v := range vals {
		if err := acc.Add(v); err != nil {
			t.Fatal(err)
		}
		racc.add(v)
		if i%4 == 3 {
			eq(fmt.Sprintf("Acc.Value after %d", i+1), acc.Value(), racc.value())
		}
	}
	eq("Acc.Value", acc.Value(), racc.value())
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
	r := newRef()
	for i := 0; i < 200; i++ {
		// Long fields push the preimage past the stack buffer.
		key, val := make([]byte, rng.Intn(40)), make([]byte, rng.Intn(400))
		rng.Read(key)
		rng.Read(val)
		if got, want := HashAttribute(nil, "db", "table", "attr", key, val), r.hashAttribute("db", "table", "attr", key, val); !bytes.Equal(got, want) {
			t.Fatalf("HashAttribute: %x, reference %x", []byte(got), []byte(want))
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
	d := hashBytes("alloc", []byte("d"))
	acc := NewAcc(nil)
	if n := testing.AllocsPerRun(100, func() { _ = acc.Add(d) }); n != 0 {
		t.Errorf("Acc.Add allocates %v times, want 0", n)
	}
	perAcc := func(adds int) float64 {
		return testing.AllocsPerRun(50, func() {
			acc := NewAcc(nil)
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
	if n := testing.AllocsPerRun(100, func() { _ = HashAttribute(nil, "benchdb", "orders", "amount", key, val) }); n != 1 {
		t.Errorf("HashAttribute allocates %v times, want 1 (the returned Value)", n)
	}
}

func BenchmarkAccAdd(b *testing.B) {
	d := hashBytes("bench", []byte("d"))
	acc := NewAcc(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := acc.Add(d); err != nil {
			b.Fatal(err)
		}
	}
	benchSink = acc.Value()
}

var benchSink Value
