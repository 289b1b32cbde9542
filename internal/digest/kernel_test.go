package digest

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

var (
	kernelSizes     = []int{4, 7, 8, 16, 20, 32, 512}
	kernelExponents = []int64{1, 3, 15, 65537}
)

// boundaryValues are the inputs where a limb kernel goes wrong first:
// all-ones (every carry chain runs to the top), single bits on either
// side of each limb boundary, a full low limb under an empty rest, and a
// full top limb over an empty rest. Evens are included on purpose — G,
// Mul, Add and AddCombined accept non-units.
func boundaryValues(size int) []Value {
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
		mk(func(v Value) { // top limb full, rest empty but odd
			for i := 0; i < size-8*((size-1)/8); i++ {
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

func randomValues(rng *rand.Rand, size, n int) []Value {
	vals := make([]Value, n)
	for i := range vals {
		vals[i] = make(Value, size)
		rng.Read(vals[i])
	}
	return vals
}

// diffCheck drives every arithmetic entry point of an Accumulator built
// from p over vals and requires byte-equality with the math/big reference
// at each step. vals must be canonical under p.
func diffCheck(t testing.TB, p Params, vals []Value) {
	t.Helper()
	a, r := MustNew(p), newRef(p)
	eq := func(what string, got Value, err error, want Value) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s (size %d, e %d):\n kernel %x\n    big %x", what, a.Len(), p.Exponent, []byte(got), []byte(want))
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
		got, err = a.Mul(v, w)
		eq(fmt.Sprintf("Mul(%x, %x)", []byte(v), []byte(w)), got, err, r.mul(v, w))
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
	// A non-unit must be refused and leave the accumulator as it was.
	for _, v := range vals {
		err := acc.Remove(v)
		if ok := racc.remove(v); ok != (err == nil) {
			t.Fatalf("Remove(%x): kernel err %v, reference invertible %v", []byte(v), err, ok)
		}
		eq(fmt.Sprintf("Acc.Value after Remove(%x)", []byte(v)), acc.Value(), nil, racc.value())
	}
	runCheck(t, a, r, vals)
	// The incremental-update shape: resume from a combined digest, swap
	// one factor for another.
	for i, v := range vals {
		in, out := vals[(i+1)%len(vals)], vals[(i+2)%len(vals)]
		from, err := a.AccFrom(v)
		if err != nil {
			t.Fatal(err)
		}
		rfrom := r.accFrom(v)
		eq("AccFrom.Value", from.Value(), nil, rfrom.value())
		if err := from.Add(in); err != nil {
			t.Fatal(err)
		}
		rfrom.add(in)
		if err := from.Remove(out); err == nil {
			rfrom.remove(out)
		}
		eq("AccFrom.Add.Remove.Value", from.Value(), nil, rfrom.value())
	}
}

// runCheck folds vals as a run — packed at stride Len(), as a D_P run
// travels, and at stride Len()+1 behind a lift byte, as a D_S run does —
// into a fresh Acc and into one that already holds a digest and a
// combined factor, and requires the bytes the math/big reference gets by
// folding each digest on its own.
func runCheck(t testing.TB, a *Accumulator, r *ref, vals []Value) {
	t.Helper()
	size := a.Len()
	// A zero digest would zero every product folded after it and so hide
	// the rest of the run from the comparison; the single-digest checks
	// above cover zero.
	vals = slices.DeleteFunc(slices.Clone(vals), func(v Value) bool {
		return new(big.Int).SetBytes(v).Sign() == 0
	})
	for _, stride := range []int{size, size + 1} {
		run := make([]byte, 0, len(vals)*stride)
		for i, v := range vals {
			run = append(run, v...)
			if stride > size {
				run = append(run, byte(i)) // the lift: not part of the digest
			}
		}
		acc, racc := a.NewAcc(), r.newAcc()
		if err := acc.AddRun(run, stride); err != nil {
			t.Fatalf("AddRun (size %d, stride %d): %v", size, stride, err)
		}
		for _, v := range vals {
			racc.add(v)
		}
		if got, want := acc.Value(), racc.value(); !bytes.Equal(got, want) {
			t.Fatalf("AddRun (size %d, stride %d, %d digests):\n kernel %x\n    big %x", size, stride, len(vals), []byte(got), []byte(want))
		}
		// Folded on top of what an Acc already holds, in two pieces.
		acc, racc = a.NewAcc(), r.newAcc()
		first, last := vals[0], vals[len(vals)-1]
		if err := acc.Add(last); err != nil {
			t.Fatal(err)
		}
		if err := acc.AddCombined(first); err != nil {
			t.Fatal(err)
		}
		racc.add(last)
		racc.addCombined(first)
		half := len(vals) / 2 * stride
		for _, part := range [][]byte{run[:half], run[half:]} {
			if err := acc.AddRun(part, stride); err != nil {
				t.Fatal(err)
			}
		}
		for _, v := range vals {
			racc.add(v)
		}
		if got, want := acc.Value(), racc.value(); !bytes.Equal(got, want) {
			t.Fatalf("Add, AddCombined, AddRun ×2 (size %d, stride %d):\n kernel %x\n    big %x", size, stride, []byte(got), []byte(want))
		}
		// A run that is not whole records of whole digests is refused.
		if len(run) > 0 {
			if err := a.NewAcc().AddRun(run[:len(run)-1], stride); err == nil {
				t.Fatalf("AddRun (size %d, stride %d) took a run one byte short", size, stride)
			}
		}
		if err := a.NewAcc().AddRun(run, size-1); err == nil {
			t.Fatalf("AddRun (size %d) took records narrower than a digest", size)
		}
	}
}

// TestKernelMatchesBig is the differential property: for every size and
// exponent, on the boundary inputs and on random ones, the limb kernel
// and math/big agree on every byte.
func TestKernelMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, size := range kernelSizes {
		for _, e := range kernelExponents {
			p := Params{Size: size, Exponent: e, Mode: Mod2K}
			vals := boundaryValues(size)
			vals = append(vals, randomValues(rng, size, 16)...)
			diffCheck(t, p, vals)
		}
	}
	// The run fold has a kernel of its own for two-limb residues and takes
	// each digest where it lies in the run: every size, both strides.
	for size := 4; size <= 8*maxLimbs; size++ {
		p := Params{Size: size, Exponent: 3, Mode: Mod2K}
		vals := append(boundaryValues(size)[:6], randomValues(rng, size, 6)...)
		runCheck(t, MustNew(p), newRef(p), vals)
	}
}

// TestHashMatchesBig pins the hash path — framing, counter-mode
// expansion, truncation, unit coercion — to the reference, ModBig
// included.
func TestHashMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	profiles := []Params{bigProfile()}
	for _, size := range kernelSizes {
		profiles = append(profiles, Params{Size: size, Exponent: 3, Mode: Mod2K})
	}
	for _, p := range profiles {
		a, r := MustNew(p), newRef(p)
		for i := 0; i < 50; i++ {
			// Long fields push the preimage past the stack buffer.
			key, val := make([]byte, rng.Intn(40)), make([]byte, rng.Intn(400))
			rng.Read(key)
			rng.Read(val)
			if got, want := a.HashAttribute("db", "table", "attr", key, val), r.hashAttribute("db", "table", "attr", key, val); !bytes.Equal(got, want) {
				t.Fatalf("HashAttribute (%v, size %d): %x, reference %x", p.Mode, a.Len(), []byte(got), []byte(want))
			}
			if got, want := a.HashBytes("domain", val), r.hashBytes("domain", val); !bytes.Equal(got, want) {
				t.Fatalf("HashBytes (%v, size %d): %x, reference %x", p.Mode, a.Len(), []byte(got), []byte(want))
			}
		}
	}
}

// TestModBigMatchesReference: the deferred g is shared by both profiles,
// so ModBig gets the same differential treatment on canonical inputs.
func TestModBigMatchesReference(t *testing.T) {
	p := bigProfile()
	a := MustNew(p)
	var vals []Value
	for i := 0; i < 12; i++ {
		vals = append(vals, a.HashBytes("modbig", []byte{byte(i)}))
	}
	vals = append(vals, a.Identity(), make(Value, a.Len())) // 1 and the non-unit 0
	diffCheck(t, p, vals)
}

// FuzzKernelVsBig lets the fuzzer pick the size, the exponent and the
// operands.
func FuzzKernelVsBig(f *testing.F) {
	// Seeds: sizes 16, 7, 512 and 20 (size = 4 + first argument).
	f.Add(uint16(12), uint8(2), []byte("seed"))
	f.Add(uint16(3), uint8(0), bytes.Repeat([]byte{0xFF}, 64))
	f.Add(uint16(508), uint8(1), []byte{0x80, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(uint16(16), uint8(3), []byte{})
	f.Fuzz(func(t *testing.T, size uint16, ei uint8, data []byte) {
		p := Params{
			Size:     4 + int(size)%(8*maxLimbs-3),
			Exponent: kernelExponents[int(ei)%len(kernelExponents)],
			Mode:     Mod2K,
		}
		if p.Size > 64 && p.Exponent == 65537 {
			p.Exponent = 15 // keep the math/big side fast enough to explore
		}
		// Four operands cut from data, cycling; the first two forced to be
		// a unit and a non-unit so Remove sees both.
		vals := make([]Value, 4)
		for i := range vals {
			vals[i] = make(Value, p.Size)
			for j := range vals[i] {
				if len(data) > 0 {
					vals[i][j] = data[(i*p.Size+j)%len(data)] + byte(i)
				}
			}
		}
		vals[0][p.Size-1] |= 1
		vals[1][p.Size-1] &^= 1
		diffCheck(t, p, vals)
	})
}

// TestAccAllocations guards the win where it was made: folding a digest
// in allocates nothing, and an Acc costs a constant number of allocations
// however many digests pass through it.
func TestAccAllocations(t *testing.T) {
	for _, size := range []int{16, 20, 512} {
		a := MustNew(Params{Size: size, Exponent: 15, Mode: Mod2K})
		d := a.HashBytes("alloc", []byte("d"))
		acc := a.NewAcc()
		if n := testing.AllocsPerRun(100, func() { _ = acc.Add(d) }); n != 0 {
			t.Errorf("size %d: Acc.Add allocates %v times, want 0", size, n)
		}
		if n := testing.AllocsPerRun(100, func() { _ = acc.AddCombined(d) }); n != 0 {
			t.Errorf("size %d: Acc.AddCombined allocates %v times, want 0", size, n)
		}
		if n := testing.AllocsPerRun(100, func() { _ = acc.Remove(d) }); n != 0 {
			t.Errorf("size %d: Acc.Remove allocates %v times, want 0", size, n)
		}
		run := bytes.Repeat(append(d.Clone(), 1), 64) // a D_S run: digest, lift
		if n := testing.AllocsPerRun(100, func() { _ = acc.AddRun(run, size+1) }); n != 0 {
			t.Errorf("size %d: Acc.AddRun allocates %v times, want 0", size, n)
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
		if one, many := perAcc(1), perAcc(200); one != many || one > 3 {
			t.Errorf("size %d: an Acc costs %v allocations for 1 digest and %v for 200; want equal and ≤ 3 (Acc, limbs, Value)", size, one, many)
		}
	}
	a := testAcc(t)
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

// BenchmarkAccAddRun folds the D_P run of a read.range answer: 256 rows
// × 7 projected-out columns of 16-byte digests.
func BenchmarkAccAddRun(b *testing.B) {
	a := MustNew(DefaultParams())
	run := bytes.Repeat(a.HashBytes("bench", []byte("d")), 256*7)
	acc := a.NewAcc()
	b.ReportAllocs()
	b.SetBytes(int64(len(run)))
	for i := 0; i < b.N; i++ {
		if err := acc.AddRun(run, a.Len()); err != nil {
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

// bigProfile is a ModBig accumulator over the odd 257-bit modulus
// 2^256 + 297.
func bigProfile() Params {
	m := new(big.Int).Lsh(big.NewInt(1), 256)
	return Params{Exponent: 3, Mode: ModBig, Modulus: m.Add(m, big.NewInt(297))}
}
