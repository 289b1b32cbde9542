package naive

import (
	"encoding/binary"
	"math/bits"

	"edgeauth/internal/digest"
)

// The kernel: arithmetic in Z_{2^128} on two little-endian uint64 limbs.
// A product is taken modulo 2^128 by never forming its high half, so
// nothing here divides or allocates.

// u128 is a residue lo + hi·2^64 of Z_{2^128}.
type u128 struct{ lo, hi uint64 }

// one is the multiplicative identity.
var one = u128{lo: 1}

// load decodes a 16-byte big-endian digest.
func load(v []byte) u128 {
	return u128{lo: binary.BigEndian.Uint64(v[8:digest.Size]), hi: binary.BigEndian.Uint64(v[:8])}
}

// store writes x into v as 16 big-endian bytes.
func (x u128) store(v []byte) {
	binary.BigEndian.PutUint64(v[:8], x.hi)
	binary.BigEndian.PutUint64(v[8:digest.Size], x.lo)
}

// mul returns x·y mod 2^128. Of the four partial products of a 128-bit
// multiply only the low one needs both halves; the two cross terms land
// wholly in the high limb and the top one wholly above it.
func mul(x, y u128) u128 {
	hi, lo := bits.Mul64(x.lo, y.lo)
	return u128{lo: lo, hi: hi + x.lo*y.hi + x.hi*y.lo}
}

// g returns x^e mod 2^128 by left-to-right square-and-multiply over the
// bits of e.
func (x u128) g() u128 {
	y := x
	for i := bits.Len64(exponent) - 2; i >= 0; i-- {
		y = mul(y, y)
		if exponent>>uint(i)&1 == 1 {
			y = mul(y, x)
		}
	}
	return y
}
