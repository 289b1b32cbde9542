package naive

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
)

// ref is the arithmetic this package used before the limb kernel, kept as
// the test-only reference: every residue a big.Int, g applied to each
// digest separately, reduction by Mod. Digests and signatures produced
// before the kernel came from exactly this code, so "the kernel agrees
// with ref" is what bit-identity with them means. It computes in the one
// ring the combiner has — m = 2^128, e = 15 — from math/big's own
// constants, not the kernel's.
type ref struct {
	e, m *big.Int
}

func newRef() *ref {
	return &ref{e: big.NewInt(15), m: new(big.Int).Lsh(big.NewInt(1), 128)}
}

func (r *ref) encode(x *big.Int) Value { return x.FillBytes(make(Value, 16)) }

func (r *ref) decode(v Value) *big.Int {
	if len(v) != 16 {
		panic(fmt.Sprintf("ref: value length %d, want 16", len(v)))
	}
	return new(big.Int).SetBytes(v)
}

func (r *ref) g(v Value) Value { return r.lift(v, 1) }

func (r *ref) lift(v Value, k int) Value {
	x := r.decode(v)
	for i := 0; i < k; i++ {
		x.Exp(x, r.e, r.m)
	}
	return r.encode(x)
}

func (r *ref) mul(u, v Value) Value {
	x := r.decode(u)
	x.Mul(x, r.decode(v))
	return r.encode(x.Mod(x, r.m))
}

func (r *ref) combine(vs ...Value) Value {
	acc := r.newAcc()
	for _, v := range vs {
		acc.add(v)
	}
	return acc.value()
}

type refAcc struct {
	r *ref
	v *big.Int
}

func (r *ref) newAcc() *refAcc           { return &refAcc{r: r, v: big.NewInt(1)} }
func (acc *refAcc) value() Value         { return acc.r.encode(acc.v) }
func (acc *refAcc) add(d Value)          { acc.mulMod(acc.gOf(d)) }
func (acc *refAcc) gOf(d Value) *big.Int { x := acc.r.decode(d); return x.Exp(x, acc.r.e, acc.r.m) }

func (acc *refAcc) mulMod(x *big.Int) {
	acc.v.Mul(acc.v, x)
	acc.v.Mod(acc.v, acc.r.m)
}

func (r *ref) hashAttribute(db, table, attr string, key, value []byte) Value {
	hw := sha256.New()
	var lenbuf [4]byte
	for _, f := range [][]byte{[]byte(db), []byte(table), []byte(attr), key, value} {
		binary.BigEndian.PutUint32(lenbuf[:], uint32(len(f)))
		hw.Write(lenbuf[:])
		hw.Write(f)
	}
	return r.digestFromHash(hw.Sum(nil))
}

// digestFromHash truncates the hash to 16 bytes, reduces it modulo m and
// sets the unit bit.
func (r *ref) digestFromHash(sum []byte) Value {
	x := new(big.Int).SetBytes(sum[:16])
	x.Mod(x, r.m)
	x.SetBit(x, 0, 1)
	return r.encode(x)
}
