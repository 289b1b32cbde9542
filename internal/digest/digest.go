// Package digest implements the cryptographic digest machinery of the
// VB-tree (Pang & Tan, ICDE 2004): a domain-separated one-way hash h over
// attribute values, and the commutative combination function
//
//	g(x) = x^15 mod 2^128
//
// whose outputs are coalesced with multiplication modulo m = 2^128.
// Because multiplication is commutative, a set of digests {d1..dn} can be
// combined in any order without affecting the final digest — the property
// the paper relies on for order-free verification objects, projection at
// the edge server and incremental digest maintenance on insert. The
// combiner is the Naive baseline's tuple digest; the VB-tree itself
// commits by the ordered hashes of merkle.go, because a product of raw
// digests can be rebalanced by whoever serves it.
//
// The hash h follows formula (1) of the paper: it binds the database name,
// table name, attribute name, tuple key and attribute value, so a digest
// for one attribute cannot be replayed as a digest for another.
//
// # The ring
//
// m, e and the digest width are constants of the code, not parameters:
// m = 2^k is the paper's choice (§3.2: "we can implement g by picking
// m = 2^k ... to optimize the modulo operation"), k = 128 is Table 1's
// 16-byte digest, and e = 15 is the exponent of its worked example. A
// Value is a residue as 16 big-endian bytes; the kernel holds it as two
// little-endian uint64 limbs (kernel.go). Reduction is free: a product's
// low 128 bits depend only on the factors' low 128 bits, so the kernel
// computes them with math/bits.Mul64 and never forms the high half.
// There is no division and no allocation. Hashed digests are forced odd,
// the odd residues being exactly the units of Z_{2^128}; every 16-byte
// string is a canonical residue, units or not.
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
	"fmt"
	"sync/atomic"
)

// size is the digest length in bytes from Table 1 of the paper: m = 2^128.
const size = 16

// Size is the byte length of every Value: the width of every digest a
// VO carries.
const Size = size

// exponent is e in g(x) = x^e mod m. The paper's worked example evaluates
// x^15 with four squarings and four reductions. It is odd, so g maps
// units to units modulo 2^k.
const exponent = 15

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

// Params configures an Accumulator. The ring is fixed (see the package
// comment); what a caller chooses is only where the operation counts go.
type Params struct {
	// Counters, when non-nil, receives operation counts.
	Counters *Counters
}

// DefaultParams returns the parameters of an uncounted accumulator.
func DefaultParams() Params {
	return Params{}
}

// Accumulator implements h, g and the commutative combination. It is
// immutable after construction and safe for concurrent use.
type Accumulator struct {
	counters *Counters
}

// New builds an Accumulator. Every Params is valid; the error is never
// non-nil.
func New(p Params) (*Accumulator, error) {
	return &Accumulator{counters: p.Counters}, nil
}

// MustNew is New without the error.
func MustNew(p Params) *Accumulator {
	a, _ := New(p)
	return a
}

// Len returns the canonical byte length of a Value: 16.
func (a *Accumulator) Len() int { return size }

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

// checkLen rejects a Value of the wrong length, which is the whole of
// validation: every 16-byte string is a canonical residue.
func checkLen(v Value) error {
	if len(v) != size {
		return fmt.Errorf("digest: value length %d, want %d", len(v), size)
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
// with length-prefixed framing of each field, truncated into Z_m and
// coerced to a unit.
func (a *Accumulator) HashAttribute(db, table, attr string, key, value []byte) Value {
	a.countHash()
	var stack [256]byte
	buf := appendField(stack[:0], db)
	buf = appendField(buf, table)
	buf = appendField(buf, attr)
	buf = appendField(buf, key)
	buf = appendField(buf, value)
	return digestFromHash(sha256.Sum256(buf))
}

// HashBytes computes a generic domain-separated one-way digest of data under
// the given domain label. It is used for node-level payloads that are not
// attribute values (e.g. Naive-baseline tuple serializations).
func (a *Accumulator) HashBytes(domain string, data []byte) Value {
	a.countHash()
	var stack [256]byte
	buf := appendField(stack[:0], domain)
	buf = append(buf, data...)
	return digestFromHash(sha256.Sum256(buf))
}

// digestFromHash maps a raw hash output into a canonical unit Value: the
// leading 16 bytes of the hash already are a residue, and the odd
// residues are exactly the units, so the coercion is one bit.
func digestFromHash(sum [sha256.Size]byte) Value {
	out := make(Value, size)
	copy(out, sum[:])
	out[size-1] |= 1
	return out
}

// G applies the one-way combiner g(x) = x^e mod m to a single digest.
func (a *Accumulator) G(v Value) (Value, error) {
	return lift(v, 1)
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

// Lift applies g to v k times: Lift(v, k) = g^k(v). Because g is
// multiplicative, lifting a combined product equals combining the lifted
// factors — the property that lets a verifier reconstruct a multi-level
// subtree digest as a flat product of lifted digests.
func (a *Accumulator) Lift(v Value, k int) (Value, error) {
	if k < 0 {
		return nil, fmt.Errorf("digest: negative lift %d", k)
	}
	out, err := lift(v, k)
	if err != nil {
		return nil, err
	}
	a.countCombine(int64(k))
	return out, nil
}

func lift(v Value, k int) (Value, error) {
	if err := checkLen(v); err != nil {
		return nil, err
	}
	x := load(v)
	for i := 0; i < k; i++ {
		x = x.g()
	}
	out := make(Value, size)
	x.store(out)
	return out, nil
}

// Acc is a running accumulator over digests. Its value is
//
//	done · g(pending)   (mod m)
//
// where pending is the product of the raw digests handed to Add since g
// was last applied, and done
// collects the already-combined factors. g is applied to pending once,
// when Value is read. Both products are held inline, so an Acc is one
// allocation however much is folded into it. An Acc is not safe for
// concurrent use.
type Acc struct {
	a             *Accumulator
	done, pending u128
	// dirty records that pending is not the identity, i.e. that reading
	// the value owes an application of g.
	dirty bool
}

// NewAcc returns an accumulator initialized to the identity.
func (a *Accumulator) NewAcc() *Acc {
	return &Acc{a: a, done: one, pending: one}
}

// Add multiplies g(d) into the accumulator: d joins the pending product,
// to which g is applied when Value is next read.
func (acc *Acc) Add(d Value) error {
	if err := checkLen(d); err != nil {
		return err
	}
	acc.pending = mul(acc.pending, load(d))
	acc.dirty = true
	acc.a.countCombine(1)
	return nil
}

// AddCombined multiplies an already-combined digest (a product of g-values)
// into the accumulator without applying g again. This is how a parent
// digest absorbs a child subtree's combined digest during verification of
// multi-level enveloping subtrees, where the child side is reconstructed
// bottom-up and then g-lifted exactly once by the caller.
func (acc *Acc) AddCombined(d Value) error {
	if err := checkLen(d); err != nil {
		return err
	}
	acc.done = mul(acc.done, load(d))
	acc.a.countCombine(1)
	return nil
}

// Value returns the canonical encoding of the current accumulator state,
// applying g to the pending product first if there is one (one combine).
// The Acc remains usable afterwards.
func (acc *Acc) Value() Value {
	if acc.dirty {
		acc.done = mul(acc.done, acc.pending.g())
		acc.pending = one
		acc.dirty = false
		acc.a.countCombine(1)
	}
	out := make(Value, size)
	acc.done.store(out)
	return out
}
