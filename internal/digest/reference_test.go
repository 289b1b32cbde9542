package digest

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
)

// ref is the arithmetic this package used before the limb kernel, kept as
// the test-only reference: every residue a big.Int, g applied to each
// digest separately, reduction by Mod. Tables, WAL records and signatures
// already on disk were produced by exactly this code, so "the kernel
// agrees with ref" is what bit-identity with persisted data means.
type ref struct {
	size int
	e, m *big.Int
	mod  Mode
}

func newRef(p Params) *ref {
	r := &ref{e: big.NewInt(p.Exponent), mod: p.Mode}
	if p.Mode == ModBig {
		r.m = new(big.Int).Set(p.Modulus)
		r.size = (r.m.BitLen() + 7) / 8
	} else {
		r.size = p.Size
		r.m = new(big.Int).Lsh(big.NewInt(1), uint(8*p.Size))
	}
	return r
}

func (r *ref) encode(x *big.Int) Value { return x.FillBytes(make(Value, r.size)) }

func (r *ref) decode(v Value) *big.Int {
	if len(v) != r.size {
		panic(fmt.Sprintf("ref: value length %d, want %d", len(v), r.size))
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
func (r *ref) accFrom(c Value) *refAcc   { return &refAcc{r: r, v: r.decode(c)} }
func (acc *refAcc) value() Value         { return acc.r.encode(acc.v) }
func (acc *refAcc) addCombined(d Value)  { acc.mulMod(acc.r.decode(d)) }
func (acc *refAcc) add(d Value)          { acc.mulMod(acc.gOf(d)) }
func (acc *refAcc) gOf(d Value) *big.Int { x := acc.r.decode(d); return x.Exp(x, acc.r.e, acc.r.m) }

func (acc *refAcc) mulMod(x *big.Int) {
	acc.v.Mul(acc.v, x)
	acc.v.Mod(acc.v, acc.r.m)
}

// remove reports false when g(d) has no inverse modulo m.
func (acc *refAcc) remove(d Value) bool {
	inv := new(big.Int).ModInverse(acc.gOf(d), acc.r.m)
	if inv == nil {
		return false
	}
	acc.mulMod(inv)
	return true
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

func (r *ref) hashBytes(domain string, data []byte) Value {
	hw := sha256.New()
	var lenbuf [4]byte
	binary.BigEndian.PutUint32(lenbuf[:], uint32(len(domain)))
	hw.Write(lenbuf[:])
	hw.Write([]byte(domain))
	hw.Write(data)
	return r.digestFromHash(hw.Sum(nil))
}

func (r *ref) digestFromHash(sum []byte) Value {
	buf := append(make([]byte, 0, r.size), sum...)
	for ctr := uint32(0); len(buf) < r.size; ctr++ {
		hw := sha256.New()
		var cb [4]byte
		binary.BigEndian.PutUint32(cb[:], ctr)
		hw.Write(cb[:])
		hw.Write(sum)
		buf = hw.Sum(buf)
	}
	x := new(big.Int).SetBytes(buf[:r.size])
	x.Mod(x, r.m)
	if r.mod == Mod2K {
		x.SetBit(x, 0, 1)
	} else if x.Sign() == 0 {
		x.SetInt64(1)
	}
	return r.encode(x)
}
