package digest

import (
	"encoding/binary"
	"math/bits"
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
	return u128{lo: binary.BigEndian.Uint64(v[8:size]), hi: binary.BigEndian.Uint64(v[:8])}
}

// store writes x into v as 16 big-endian bytes.
func (x u128) store(v []byte) {
	binary.BigEndian.PutUint64(v[:8], x.hi)
	binary.BigEndian.PutUint64(v[8:size], x.lo)
}

// mul returns x·y mod 2^128. Of the four partial products of a 128-bit
// multiply only the low one needs both halves; the two cross terms land
// wholly in the high limb and the top one wholly above it.
func mul(x, y u128) u128 {
	hi, lo := bits.Mul64(x.lo, y.lo)
	return u128{lo: lo, hi: hi + x.lo*y.hi + x.hi*y.lo}
}

// mulRun returns p·Π d mod 2^128 over d the 16-byte digest at the start
// of each stride-byte record of run. len(run) is a multiple of stride and
// stride ≥ 16.
func mulRun(p u128, run []byte, stride int) u128 {
	for off := 0; off < len(run); off += stride {
		p = mul(p, load(run[off:off+size]))
	}
	return p
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

// inv returns x⁻¹ mod 2^128 for odd x by Newton's iteration
// y ← y·(2 − x·y), which doubles the number of correct low bits per step.
// An odd x is its own inverse modulo 8; five steps on the low limb alone
// reach 96 ≥ 64 correct bits, and one step at full width reaches 128.
func (x u128) inv() u128 {
	y := x.lo
	for i := 0; i < 5; i++ {
		y *= 2 - x.lo*y
	}
	r := u128{lo: y}
	t := mul(x, r)
	// 2 − t = ^t + 3 in two's complement.
	lo, carry := bits.Add64(^t.lo, 3, 0)
	return mul(r, u128{lo: lo, hi: ^t.hi + carry})
}
