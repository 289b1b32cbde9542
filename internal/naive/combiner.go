package naive

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"edgeauth/internal/digest"
)

// exponent is e in g(x) = x^e mod m. The paper's worked example evaluates
// x^15 with four squarings and four reductions. It is odd, so g maps
// units to units modulo 2^k.
const exponent = 15

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
// coerced to a unit. It counts one hash on c, which may be nil.
func HashAttribute(c *digest.Counters, db, table, attr string, key, value []byte) digest.Value {
	if c != nil {
		c.HashOps.Add(1)
	}
	var stack [256]byte
	buf := appendField(stack[:0], db)
	buf = appendField(buf, table)
	buf = appendField(buf, attr)
	buf = appendField(buf, key)
	buf = appendField(buf, value)
	return digestFromHash(sha256.Sum256(buf))
}

// digestFromHash maps a raw hash output into a canonical unit Value: the
// leading 16 bytes of the hash already are a residue, and the odd
// residues are exactly the units, so the coercion is one bit.
func digestFromHash(sum [sha256.Size]byte) digest.Value {
	out := make(digest.Value, digest.Size)
	copy(out, sum[:])
	out[digest.Size-1] |= 1
	return out
}

// Acc is a running accumulator over digests. Its value is
//
//	done · g(pending)   (mod m)
//
// where pending is the product of the raw digests handed to Add since g
// was last applied, and done collects the already-combined factors. g is
// applied to pending once, when Value is read. Both products are held
// inline, so an Acc is one allocation however much is folded into it. An
// Acc is not safe for concurrent use.
type Acc struct {
	counters      *digest.Counters
	done, pending u128
	// dirty records that pending is not the identity, i.e. that reading
	// the value owes an application of g.
	dirty bool
}

// NewAcc returns an accumulator initialized to the identity. Every digest
// multiplied in and every application of g counts one combine on c,
// which may be nil.
func NewAcc(c *digest.Counters) *Acc {
	return &Acc{counters: c, done: one, pending: one}
}

// Add multiplies g(d) into the accumulator: d joins the pending product,
// to which g is applied when Value is next read. Every 16-byte string is
// a canonical residue, so a digest of another length is all it rejects.
func (acc *Acc) Add(d digest.Value) error {
	if len(d) != digest.Size {
		return fmt.Errorf("naive: digest length %d, want %d", len(d), digest.Size)
	}
	acc.pending = mul(acc.pending, load(d))
	acc.dirty = true
	if acc.counters != nil {
		acc.counters.CombineOps.Add(1)
	}
	return nil
}

// Value returns the canonical encoding of the current accumulator state,
// applying g to the pending product first if there is one (one combine).
// The Acc remains usable afterwards.
func (acc *Acc) Value() digest.Value {
	if acc.dirty {
		acc.done = mul(acc.done, acc.pending.g())
		acc.pending = one
		acc.dirty = false
		if acc.counters != nil {
			acc.counters.CombineOps.Add(1)
		}
	}
	out := make(digest.Value, digest.Size)
	acc.done.store(out)
	return out
}
