package digest

import (
	"fmt"
	"math/big"
)

// The ModBig profile: Z_m for a caller-supplied odd modulus. Reducing
// modulo an arbitrary odd m is a true division, which is what math/big
// is for; the limb kernel's "drop the high bits" only works for m = 2^k.

// bigRing holds a ModBig accumulator's modulus and exponent.
type bigRing struct {
	m, e *big.Int
}

// decode parses a canonical Value. Only residues below m are canonical:
// a larger integer of the right length would be a second byte string for
// the same group element, which an untrusted VO must not be able to send.
func (r *bigRing) decode(v Value) (*big.Int, error) {
	x := new(big.Int).SetBytes(v)
	if x.Cmp(r.m) >= 0 {
		return nil, fmt.Errorf("digest: value %v is not below the modulus", v)
	}
	return x, nil
}

// reduceHash maps hash output (len(out) bytes, in place) to a canonical
// unit: reduced modulo m, with zero mapped to one (any other residue is a
// unit with overwhelming probability for an RSA-style modulus).
func (r *bigRing) reduceHash(out Value) {
	x := new(big.Int).SetBytes(out)
	x.Mod(x, r.m)
	if x.Sign() == 0 {
		x.SetInt64(1)
	}
	x.FillBytes(out)
}

// lift returns g^k(v).
func (r *bigRing) lift(v Value, k int) (Value, error) {
	x, err := r.decode(v)
	if err != nil {
		return nil, err
	}
	for i := 0; i < k; i++ {
		x.Exp(x, r.e, r.m)
	}
	return x.FillBytes(make(Value, len(v))), nil
}

// mulInto sets dst = dst·v mod m, or dst·v⁻¹ when invert is set.
func (r *bigRing) mulInto(dst *big.Int, v Value, invert bool) error {
	x, err := r.decode(v)
	if err != nil {
		return err
	}
	if invert && x.ModInverse(x, r.m) == nil {
		return fmt.Errorf("digest: %v is not invertible modulo m", v)
	}
	dst.Mul(dst, x)
	dst.Mod(dst, r.m)
	return nil
}

// fold sets done = done·g(pending) mod m and pending = 1.
func (r *bigRing) fold(done, pending *big.Int) {
	pending.Exp(pending, r.e, r.m)
	done.Mul(done, pending)
	done.Mod(done, r.m)
	pending.SetInt64(1)
}
