// Package digest implements the digest machinery of the VB-tree (Pang &
// Tan, ICDE 2004): the ordered hashes by which every attribute, tuple,
// in-node group and node commits to what lies below it (merkle.go), and
// the operation counters the paper's cost accounting reads.
//
// The paper's §3.2 combines digests commutatively, g(x) = x^e mod m over
// their product. The VB-tree does not: only the root digest is signed,
// and a product of raw digests can be rebalanced by whoever serves it.
// That combiner is the Naive baseline's tuple digest and lives with it,
// in package naive, off the serving path.
package digest

import (
	"fmt"
	"sync/atomic"
)

// size is the digest length in bytes from Table 1 of the paper: 16.
const size = 16

// Size is the byte length of every Value: the width of every digest a
// VO carries.
const Size = size

// Value is an unsigned digest: a hash truncated to Size bytes. Its length
// equals Accumulator.Len().
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
	CombineOps atomic.Int64 // digests multiplied in plus applications of g (Cost_k); bumped by package naive
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

// Params configures an Accumulator: what a caller chooses is only where
// the operation counts go.
type Params struct {
	// Counters, when non-nil, receives operation counts.
	Counters *Counters
}

// DefaultParams returns the parameters of an uncounted accumulator.
func DefaultParams() Params {
	return Params{}
}

// Accumulator computes the ordered hashes of merkle.go and counts them.
// It is immutable after construction and safe for concurrent use.
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
