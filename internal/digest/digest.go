// Package digest implements the cryptographic digest machinery of the
// VB-tree (Pang & Tan, ICDE 2004): a domain-separated one-way hash h over
// attribute values, and the commutative combination function
//
//	g(x) = x^e mod m
//
// whose outputs are coalesced with multiplication modulo m. Because
// multiplication is commutative, a set of digests {d1..dn} can be combined
// in any order without affecting the final digest — the property the paper
// relies on for (a) order-free verification objects, (b) projection at the
// edge server, and (c) incremental digest maintenance on insert.
//
// The hash h follows formula (1) of the paper: it binds the database name,
// table name, attribute name, tuple key and attribute value, so a digest
// for one attribute cannot be replayed as a digest for another.
//
// # Modulus profiles
//
// Mod2K is m = 2^(8·Size), the paper's choice (§3.2: "we can implement g
// by picking m = 2^k ... to optimize the modulo operation"). A residue is
// ⌈Size/8⌉ little-endian uint64 limbs (kernel.go); a Value is the same
// number as Size big-endian bytes. Reduction is free: a product's low k
// bits depend only on the factors' low k bits, so the kernel computes the
// low limbs of every product with math/bits.Mul64/Add64, never forms the
// high half, and the bits of the top limb above 8·Size are dropped when a
// residue is written out. There is no division, no allocation, and one
// code path for every Size from 4 to 512 bytes — beside which a digest
// folded into an Acc (Add, AddRun) takes a straight-line 128-bit multiply
// when the residue fits two limbs (Size 9–16, Table 1's default among
// them). Hashed digests are forced odd, the odd residues being exactly
// the units of Z_{2^k}, which makes the accumulator invertible (Remove,
// by Newton iteration); every Size-byte string is a canonical residue,
// units or not.
//
// ModBig is a caller-supplied odd modulus (e.g. an RSA modulus), trading
// speed and size for a hardened multiplicative group. Reducing modulo an
// arbitrary odd m is a real division, so this profile stays on math/big
// (modbig.go); only residues below m are canonical, and anything else is
// rejected rather than reduced.
//
// # One g per product
//
// g is a homomorphism of the multiplicative monoid of Z_m:
//
//	Π g(dᵢ) = Π dᵢ^e = (Π dᵢ)^e = g(Π dᵢ)   (mod m)
//
// in any commutative ring, units or not. An Acc therefore multiplies the
// raw digests handed to Add into a pending product and applies g to that
// product once, when Value is read — one multiplication per digest and
// one exponentiation per combination, not one exponentiation per digest.
// The residue it arrives at is the same element of Z_m, so every digest,
// signature and stored page is bit-identical to what exponentiating each
// digest separately produces.
package digest

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"sync/atomic"
)

// Mode selects the modulus profile of an Accumulator.
type Mode int

const (
	// Mod2K uses m = 2^(8·Size), the paper's fast profile.
	Mod2K Mode = iota
	// ModBig uses a caller-supplied odd modulus.
	ModBig
)

func (m Mode) String() string {
	switch m {
	case Mod2K:
		return "mod2k"
	case ModBig:
		return "modbig"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// DefaultSize is the digest length in bytes from Table 1 of the paper.
const DefaultSize = 16

// DefaultExponent is the exponent e of g(x) = x^e mod m. The paper's
// worked example evaluates x^15 with four squarings and four reductions;
// we adopt the same exponent as the default. It must be odd so that g
// maps units to units modulo 2^k.
const DefaultExponent = 15

// Value is an unsigned digest: the canonical big-endian, fixed-width
// encoding of an element of Z_m. Its length equals Accumulator.Len().
type Value []byte

// Clone returns an independent copy of v.
func (v Value) Clone() Value {
	c := make(Value, len(v))
	copy(c, v)
	return c
}

// Equal reports whether two digests are byte-identical.
func (v Value) Equal(o Value) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders a short hex prefix, for logs and tests.
func (v Value) String() string {
	const max = 8
	if len(v) <= max {
		return fmt.Sprintf("%x", []byte(v))
	}
	return fmt.Sprintf("%x…", []byte(v[:max]))
}

// Counters accumulates operation counts for the cost accounting of the
// paper's §4.3 (Figure 12/13 reproduce client computation cost in units of
// Cost_h). All fields are updated atomically and may be shared across
// goroutines.
type Counters struct {
	HashOps    atomic.Int64 // evaluations of h (Cost_h)
	CombineOps atomic.Int64 // digests multiplied in plus applications of g (Cost_k)
	RecoverOps atomic.Int64 // signature recoveries s⁻¹ (Cost_s); bumped by package sig
	SignOps    atomic.Int64 // signature generations s (server-side cost); bumped by package sig
}

// Snapshot returns a plain-struct copy of the counters.
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		HashOps:    c.HashOps.Load(),
		CombineOps: c.CombineOps.Load(),
		RecoverOps: c.RecoverOps.Load(),
		SignOps:    c.SignOps.Load(),
	}
}

// Reset zeroes all counters.
func (c *Counters) Reset() {
	c.HashOps.Store(0)
	c.CombineOps.Store(0)
	c.RecoverOps.Store(0)
	c.SignOps.Store(0)
}

// CounterSnapshot is an immutable copy of Counters.
type CounterSnapshot struct {
	HashOps    int64
	CombineOps int64
	RecoverOps int64
	SignOps    int64
}

// Sub returns the element-wise difference s - o.
func (s CounterSnapshot) Sub(o CounterSnapshot) CounterSnapshot {
	return CounterSnapshot{
		HashOps:    s.HashOps - o.HashOps,
		CombineOps: s.CombineOps - o.CombineOps,
		RecoverOps: s.RecoverOps - o.RecoverOps,
		SignOps:    s.SignOps - o.SignOps,
	}
}

// Params configures an Accumulator.
type Params struct {
	// Size is the digest length in bytes for the Mod2K profile.
	// Ignored for ModBig (the modulus determines the length).
	Size int
	// Exponent is e in g(x) = x^e mod m. Must be positive and odd.
	Exponent int64
	// Mode selects the modulus profile.
	Mode Mode
	// Modulus is required for ModBig and must be odd and > 2.
	Modulus *big.Int
	// Counters, when non-nil, receives operation counts.
	Counters *Counters
}

// DefaultParams returns the paper's defaults: 16-byte digests, e = 15,
// m = 2^128.
func DefaultParams() Params {
	return Params{Size: DefaultSize, Exponent: DefaultExponent, Mode: Mod2K}
}

// Accumulator implements h, g and the commutative combination. It is
// immutable after construction and safe for concurrent use.
type Accumulator struct {
	size     int    // canonical encoded length of a Value
	exponent uint64 // e
	mode     Mode
	limbs    int      // Mod2K: ⌈size/8⌉
	big      *bigRing // ModBig: m and e; nil under Mod2K
	counters *Counters
}

// New validates p and builds an Accumulator.
func New(p Params) (*Accumulator, error) {
	if p.Exponent == 0 {
		p.Exponent = DefaultExponent
	}
	if p.Exponent < 0 || p.Exponent%2 == 0 {
		return nil, fmt.Errorf("digest: exponent must be positive and odd, got %d", p.Exponent)
	}
	a := &Accumulator{
		exponent: uint64(p.Exponent),
		mode:     p.Mode,
		counters: p.Counters,
	}
	switch p.Mode {
	case Mod2K:
		if p.Size == 0 {
			p.Size = DefaultSize
		}
		if p.Size < 4 || p.Size > 8*maxLimbs {
			return nil, fmt.Errorf("digest: size must be in [4,%d] bytes, got %d", 8*maxLimbs, p.Size)
		}
		a.size = p.Size
		a.limbs = (p.Size + 7) / 8
	case ModBig:
		if p.Modulus == nil || p.Modulus.Sign() <= 0 || p.Modulus.Bit(0) == 0 || p.Modulus.BitLen() < 24 {
			return nil, errors.New("digest: ModBig requires an odd modulus of at least 24 bits")
		}
		a.big = &bigRing{m: new(big.Int).Set(p.Modulus), e: big.NewInt(p.Exponent)}
		a.size = (p.Modulus.BitLen() + 7) / 8
	default:
		return nil, fmt.Errorf("digest: unknown mode %v", p.Mode)
	}
	return a, nil
}

// MustNew is New for parameters known to be valid; it panics on error.
func MustNew(p Params) *Accumulator {
	a, err := New(p)
	if err != nil {
		panic(err)
	}
	return a
}

// Len returns the canonical byte length of a Value under this accumulator.
func (a *Accumulator) Len() int { return a.size }

// Mode returns the modulus profile.
func (a *Accumulator) Mode() Mode { return a.mode }

// Modulus returns a copy of m.
func (a *Accumulator) Modulus() *big.Int {
	if a.mode == ModBig {
		return new(big.Int).Set(a.big.m)
	}
	return new(big.Int).Lsh(big.NewInt(1), uint(8*a.size))
}

// Exponent returns e.
func (a *Accumulator) Exponent() int64 { return int64(a.exponent) }

// Counters returns the counter sink (possibly nil).
func (a *Accumulator) Counters() *Counters { return a.counters }

func (a *Accumulator) countHash() {
	if a.counters != nil {
		a.counters.HashOps.Add(1)
	}
}

func (a *Accumulator) countCombine(n int64) {
	if a.counters != nil && n > 0 {
		a.counters.CombineOps.Add(n)
	}
}

// checkLen rejects a Value of the wrong length. Under Mod2K that is the
// whole of validation: every Size-byte string is a canonical residue.
func (a *Accumulator) checkLen(v Value) error {
	if len(v) != a.size {
		return fmt.Errorf("digest: value length %d, want %d", len(v), a.size)
	}
	return nil
}

// appendField frames one preimage field with its length, so no two
// distinct field tuples collide by concatenation ambiguity.
func appendField[T string | []byte](buf []byte, f T) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(f)))
	return append(buf, f...)
}

// HashAttribute computes formula (1)'s inner hash
//
//	h(dbName | tableName | attrName | key | value)
//
// with length-prefixed framing of each field, truncated/reduced into Z_m
// and coerced to a unit.
func (a *Accumulator) HashAttribute(db, table, attr string, key, value []byte) Value {
	return a.HashAttributeTo(nil, db, table, attr, key, value)
}

// HashAttributeTo is HashAttribute writing the digest into dst's backing
// array when that has room for it, so a verifier hashing one attribute
// after another into an Acc reuses a single Value.
func (a *Accumulator) HashAttributeTo(dst Value, db, table, attr string, key, value []byte) Value {
	a.countHash()
	var stack [256]byte
	buf := appendField(stack[:0], db)
	buf = appendField(buf, table)
	buf = appendField(buf, attr)
	buf = appendField(buf, key)
	buf = appendField(buf, value)
	return a.digestFromHash(dst, sha256.Sum256(buf))
}

// HashBytes computes a generic domain-separated one-way digest of data under
// the given domain label. It is used for node-level payloads that are not
// attribute values (e.g. Naive-baseline tuple serializations).
func (a *Accumulator) HashBytes(domain string, data []byte) Value {
	a.countHash()
	var stack [256]byte
	buf := appendField(stack[:0], domain)
	buf = append(buf, data...)
	return a.digestFromHash(nil, sha256.Sum256(buf))
}

// digestFromHash maps a raw hash output into a canonical unit Value (in
// dst's backing array when it is large enough): the leading Len() bytes
// of the hash — expanded with counter-mode rehashing when the target is
// wider than one SHA-256 block — reduced modulo m and coerced to a unit.
// Under Mod2K the bytes already are a residue and the odd residues are
// exactly the units, so the coercion is one bit.
func (a *Accumulator) digestFromHash(dst Value, sum [sha256.Size]byte) Value {
	out := dst[:0]
	if cap(out) < a.size {
		out = make(Value, a.size)
	}
	out = out[:a.size]
	filled := copy(out, sum[:])
	var block [4 + sha256.Size]byte
	copy(block[4:], sum[:])
	for ctr := uint32(0); filled < len(out); ctr++ {
		binary.BigEndian.PutUint32(block[:4], ctr)
		next := sha256.Sum256(block[:])
		filled += copy(out[filled:], next[:])
	}
	if a.mode == ModBig {
		a.big.reduceHash(out)
	} else {
		out[len(out)-1] |= 1
	}
	return out
}

// G applies the one-way combiner g(x) = x^e mod m to a single digest.
func (a *Accumulator) G(v Value) (Value, error) {
	return a.lift(v, 1)
}

// Combine coalesces a set of digests into one:
//
//	Combine(d1..dn) = Π g(di)  (mod m)
//
// The multiplication is commutative, so the order of vs never affects the
// result. Combine of an empty set yields the multiplicative identity.
func (a *Accumulator) Combine(vs ...Value) (Value, error) {
	acc := a.NewAcc()
	for _, v := range vs {
		if err := acc.Add(v); err != nil {
			return nil, err
		}
	}
	return acc.Value(), nil
}

// Identity returns the digest of the empty combination (the canonical
// encoding of 1).
func (a *Accumulator) Identity() Value {
	v := make(Value, a.size)
	v[a.size-1] = 1
	return v
}

// Lift applies g to v k times: Lift(v, k) = g^k(v). Because g is
// multiplicative, lifting a combined product equals combining the lifted
// factors — the property that lets a verifier reconstruct a multi-level
// subtree digest as a flat product of lifted digests.
func (a *Accumulator) Lift(v Value, k int) (Value, error) {
	if k < 0 {
		return nil, fmt.Errorf("digest: negative lift %d", k)
	}
	out, err := a.lift(v, k)
	if err != nil {
		return nil, err
	}
	a.countCombine(int64(k))
	return out, nil
}

func (a *Accumulator) lift(v Value, k int) (Value, error) {
	if err := a.checkLen(v); err != nil {
		return nil, err
	}
	if a.mode == ModBig {
		return a.big.lift(v, k)
	}
	var s [3 * maxLimbs]uint64
	x, y, tmp := s[:a.limbs], s[maxLimbs:maxLimbs+a.limbs], s[2*maxLimbs:2*maxLimbs+a.limbs]
	load(x, v)
	for i := 0; i < k; i++ {
		expTo(y, x, a.exponent, tmp)
		x, y = y, x
	}
	out := make(Value, a.size)
	store(out, x)
	return out, nil
}

// Mul multiplies two already-combined digests modulo m (no g applied).
func (a *Accumulator) Mul(u, v Value) (Value, error) {
	acc, err := a.AccFrom(u)
	if err != nil {
		return nil, err
	}
	if err := acc.AddCombined(v); err != nil {
		return nil, err
	}
	return acc.Value(), nil
}

// Acc is a running accumulator over digests. Its value is
//
//	done · g(pending)   (mod m)
//
// where pending is the product of the raw digests handed to Add (and the
// inverses of those handed to Remove) since g was last applied, and done
// collects the already-combined factors. g is applied to pending once,
// when Value is read. An Acc is not safe for concurrent use.
type Acc struct {
	a *Accumulator
	// Mod2K: accWindows n-limb windows of one array — done, pending and
	// scratch — so an Acc costs two allocations however much is folded in.
	limbs []uint64
	// ModBig.
	bigDone, bigPending *big.Int
	// dirty records that pending is not the identity, i.e. that reading
	// the value owes an application of g.
	dirty bool
}

// Windows of Acc.limbs.
const (
	winDone = iota
	winPending
	winOperand // the digest being folded in, decoded
	winTmp1
	winTmp2
	accWindows
)

func (acc *Acc) win(i int) []uint64 {
	n := acc.a.limbs
	return acc.limbs[i*n : (i+1)*n]
}

// NewAcc returns an accumulator initialized to the identity.
func (a *Accumulator) NewAcc() *Acc {
	acc := &Acc{a: a}
	if a.mode == ModBig {
		acc.bigDone, acc.bigPending = big.NewInt(1), big.NewInt(1)
		return acc
	}
	acc.limbs = make([]uint64, accWindows*a.limbs)
	acc.win(winDone)[0] = 1
	acc.win(winPending)[0] = 1
	return acc
}

// AccFrom resumes accumulation from a previously combined digest. This is
// the basis of the paper's incremental insert: the central server decodes
// the current (unsigned) node digest and multiplies in the new tuple's
// digest.
func (a *Accumulator) AccFrom(combined Value) (*Acc, error) {
	if err := a.checkLen(combined); err != nil {
		return nil, err
	}
	acc := a.NewAcc()
	if a.mode == ModBig {
		x, err := a.big.decode(combined)
		if err != nil {
			return nil, err
		}
		acc.bigDone = x
	} else {
		load(acc.win(winDone), combined)
	}
	return acc, nil
}

// mulInto multiplies d, or its inverse, into window w (Mod2K) or into the
// matching big.Int (ModBig), and counts one combine.
func (acc *Acc) mulInto(w int, d Value, invert bool) error {
	a := acc.a
	if err := a.checkLen(d); err != nil {
		return err
	}
	if a.mode == ModBig {
		dst := acc.bigDone
		if w == winPending {
			dst = acc.bigPending
		}
		if err := a.big.mulInto(dst, d, invert); err != nil {
			return err
		}
	} else {
		x := acc.win(winOperand)
		load(x, d)
		if invert {
			if x[0]&1 == 0 {
				return fmt.Errorf("digest: %v is not invertible modulo m", d)
			}
			inv := acc.win(winTmp1)
			invTo(inv, x, acc.win(winTmp2))
			x = inv
		}
		mulBy(acc.win(w), x)
	}
	a.countCombine(1)
	return nil
}

// Add multiplies g(d) into the accumulator: d joins the pending product,
// to which g is applied when Value is next read.
func (acc *Acc) Add(d Value) error {
	if err := acc.a.checkLen(d); err != nil {
		return err
	}
	return acc.addRun(d, len(d), 1)
}

// AddRun is Add for every digest of a strided run, in place: run is
// len(run)/stride records of stride bytes, each beginning with a
// Len()-byte digest — a VO's D_P run has stride Len(), its D_S run
// Len()+1, a lift riding behind each digest. The run's shape is checked
// once, not per digest, and the combines are counted once; under ModBig
// every digest is still checked to be canonical (below m).
func (acc *Acc) AddRun(run []byte, stride int) error {
	if size := acc.a.size; stride < size || len(run)%stride != 0 {
		return fmt.Errorf("digest: %d bytes are not a run of %d-byte records holding %d-byte digests", len(run), stride, size)
	}
	return acc.addRun(run, stride, len(run)/stride)
}

// addRun folds the n digests of a run whose shape its caller checked.
func (acc *Acc) addRun(run []byte, stride, n int) error {
	a := acc.a
	switch {
	case a.mode == ModBig:
		for i := 0; i < n; i++ {
			if err := a.big.mulInto(acc.bigPending, Value(run[i*stride:i*stride+a.size]), false); err != nil {
				// What was folded before the refused digest stays folded.
				acc.dirty = acc.dirty || i > 0
				a.countCombine(int64(i))
				return err
			}
		}
	case a.limbs == 2:
		p := acc.win(winPending)
		p[0], p[1] = mulRun2(p[0], p[1], run, stride, a.size)
	default:
		x, p := acc.win(winOperand), acc.win(winPending)
		for off := 0; off < len(run); off += stride {
			load(x, run[off:off+a.size])
			mulBy(p, x)
		}
	}
	acc.dirty = acc.dirty || n > 0
	a.countCombine(int64(n))
	return nil
}

// AddCombined multiplies an already-combined digest (a product of g-values)
// into the accumulator without applying g again. This is how a parent
// digest absorbs a child subtree's combined digest during verification of
// multi-level enveloping subtrees, where the child side is reconstructed
// bottom-up and then g-lifted exactly once by the caller.
func (acc *Acc) AddCombined(d Value) error {
	return acc.mulInto(winDone, d, false)
}

// Remove divides g(d) out of the accumulator: g(d)⁻¹ = g(d⁻¹), so d⁻¹
// joins the pending product. It fails if d is not a unit modulo m
// (impossible for hashed digests under Mod2K, which are all odd).
func (acc *Acc) Remove(d Value) error {
	if err := acc.mulInto(winPending, d, true); err != nil {
		return err
	}
	acc.dirty = true
	return nil
}

// Value returns the canonical encoding of the current accumulator state,
// applying g to the pending product first if there is one (one combine).
// The Acc remains usable afterwards.
func (acc *Acc) Value() Value {
	a := acc.a
	if acc.dirty {
		if a.mode == ModBig {
			a.big.fold(acc.bigDone, acc.bigPending)
		} else {
			pending, g := acc.win(winPending), acc.win(winTmp1)
			expTo(g, pending, a.exponent, acc.win(winTmp2))
			mulBy(acc.win(winDone), g)
			setOne(pending)
		}
		acc.dirty = false
		a.countCombine(1)
	}
	out := make(Value, a.size)
	if a.mode == ModBig {
		acc.bigDone.FillBytes(out)
	} else {
		store(out, acc.win(winDone))
	}
	return out
}
