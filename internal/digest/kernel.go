package digest

import (
	"encoding/binary"
	"math/bits"
)

// The Mod2K kernel: arithmetic in Z_m for m = 2^(8·Size) on ⌈Size/8⌉
// little-endian uint64 limbs. Every routine works modulo 2^(64·n), n the
// limb count; because 2^(8·Size) divides 2^(64·n), the bits a routine
// leaves above bit 8·Size never reach a bit below it, so they are simply
// not written out: store emits the low Size bytes and that is the whole
// reduction. Nothing here allocates, and nothing depends on n beyond the
// loop bounds — one code path serves every legal Size.

// maxLimbs is the limb count of the widest legal digest (512 bytes); it
// sizes the stack scratch of the stateless operations.
const maxLimbs = 512 / 8

// load decodes the big-endian digest v into the little-endian limbs x,
// len(x) = ⌈len(v)/8⌉.
func load(x []uint64, v []byte) {
	i := 0
	for ; len(v) >= 8; i++ {
		x[i] = binary.BigEndian.Uint64(v[len(v)-8:])
		v = v[:len(v)-8]
	}
	if len(v) > 0 {
		var top uint64
		for _, b := range v {
			top = top<<8 | uint64(b)
		}
		x[i] = top
	}
}

// store writes x mod 2^(8·len(v)) into v, big-endian. Dropping the bytes
// of the top limb that do not fit is the reduction modulo m.
func store(v []byte, x []uint64) {
	i := 0
	for ; len(v) >= 8; i++ {
		binary.BigEndian.PutUint64(v[len(v)-8:], x[i])
		v = v[:len(v)-8]
	}
	if len(v) > 0 {
		top := x[i]
		for j := len(v) - 1; j >= 0; j-- {
			v[j] = byte(top)
			top >>= 8
		}
	}
}

// setOne sets x to the multiplicative identity.
func setOne(x []uint64) {
	for i := range x {
		x[i] = 0
	}
	x[0] = 1
}

// mulBy sets x = x·y mod 2^(64·len(x)) in place. y must not alias x and
// must be at least as long.
//
// The partial products are taken from the top limb of x down: when limb i
// is consumed, the limbs above it already hold finished partial sums and
// no later (lower) limb's product reaches below its own position, so limb
// i can be overwritten with the low half of x[i]·y[0] and the rest added
// above it. Carries out of the top limb are the part modulo 2^(64·n)
// discards.
func mulBy(x, y []uint64) {
	n := len(x)
	for i := n - 1; i >= 0; i-- {
		xi := x[i]
		x[i] = 0
		var carry uint64
		for j := 0; i+j < n-1; j++ {
			// xi·y[j] + x[i+j] + carry < 2^128, so hi absorbs both carries.
			hi, lo := bits.Mul64(xi, y[j])
			var c uint64
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			x[i+j], c = bits.Add64(x[i+j], lo, 0)
			carry = hi + c
		}
		x[n-1] += xi*y[n-1-i] + carry
	}
}

// mulRun2 is the run fold for residues of two limbs (Size 9–16, Table 1's
// 16-byte default among them): it returns p·Π d mod 2^128, p = p1·2^64 +
// p0 and d the size-byte digest at the start of each stride-byte record
// of run. Of the four partial products of a 128-bit multiply only the
// low one needs both halves; the two cross terms land wholly in the high
// limb and the top one wholly above it. len(run) is a multiple of stride
// and stride ≥ size.
func mulRun2(p0, p1 uint64, run []byte, stride, size int) (uint64, uint64) {
	for off := 0; off < len(run); off += stride {
		d := run[off : off+size]
		y0 := binary.BigEndian.Uint64(d[size-8:])
		var y1 uint64
		if size == 16 {
			y1 = binary.BigEndian.Uint64(d[:8])
		} else {
			for _, b := range d[:size-8] {
				y1 = y1<<8 | uint64(b)
			}
		}
		hi, lo := bits.Mul64(p0, y0)
		p0, p1 = lo, hi+p0*y1+p1*y0
	}
	return p0, p1
}

// expTo sets dst = x^e mod 2^(64·n) by left-to-right square-and-multiply
// over the bits of e (e ≥ 1). dst, x and tmp are distinct n-limb slices.
func expTo(dst, x []uint64, e uint64, tmp []uint64) {
	copy(dst, x)
	for i := bits.Len64(e) - 2; i >= 0; i-- {
		copy(tmp, dst)
		mulBy(dst, tmp)
		if e>>uint(i)&1 == 1 {
			mulBy(dst, x)
		}
	}
}

// invTo sets dst = x⁻¹ mod 2^(64·n) for odd x by Newton's iteration
// y ← y·(2 − x·y), which doubles the number of correct low bits per step.
// An odd x is its own inverse modulo 8; five steps on the low limb alone
// reach 96 ≥ 64 correct bits, after which the working width doubles per
// step until it covers all n limbs. dst, x and tmp are distinct n-limb
// slices.
func invTo(dst, x, tmp []uint64) {
	x0 := x[0]
	y := x0
	for i := 0; i < 5; i++ {
		y *= 2 - x0*y
	}
	for i := range dst {
		dst[i] = 0
	}
	dst[0] = y
	for k := 1; k < len(dst); {
		k *= 2
		if k > len(dst) {
			k = len(dst)
		}
		t := tmp[:k]
		copy(t, x[:k])
		mulBy(t, dst[:k])
		// t = 2 − t = ^t + 3 in two's complement.
		carry := uint64(3)
		for i := range t {
			t[i], carry = bits.Add64(^t[i], carry, 0)
		}
		mulBy(dst[:k], t)
	}
}
