package verify

import (
	"fmt"
	"slices"

	"edgeauth/internal/digest"
	"edgeauth/internal/vo"
)

// The tree commits by ordered hashes (package digest), and the VO
// carries the envelope from the root down (package vo). The verifier
// recomputes the root digest structurally: each node record's in-node
// proof is folded bottom-up (digest.Accumulator.Recompute), a recomputed
// position of a leaf being the next result row's tuple digest — its
// returned values hashed, its projected-out ones taken from D_P, in
// column order — and one of an internal node the next record's node.

// orderedDigest computes the root digest the answer and its ordered
// envelope recompute.
func (v *Verifier) orderedDigest(an *anchored, rs *vo.ResultSet, w *vo.VO) (digest.Value, error) {
	rows, err := w.Envelope()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if rows != len(rs.Tuples) {
		return nil, fmt.Errorf("%w: the envelope recomputes %d rows, the answer has %d", ErrMalformed, rows, len(rs.Tuples))
	}
	o := &orderedWalk{
		v: v, rs: rs,
		nodes: w.Nodes, ds: w.DS, dp: w.DP,
		resCol: make([]int, len(v.Schema.Columns)),
		// Room for a row's preimage with a key of up to 64 bytes.
		pre: make([]byte, 0, 3+64+len(v.Schema.Columns)*v.Acc.Len()),
	}
	for ci := range o.resCol {
		o.resCol[ci] = -1
	}
	for i, ci := range an.colIdx {
		o.resCol[ci] = i
	}
	u, err := o.recompute(int(w.TopLevel))
	if err != nil {
		return nil, err
	}
	u = u.Clone()
	if len(o.nodes)+len(o.ds)+len(o.dp) != 0 || o.row != len(rs.Tuples) {
		return nil, fmt.Errorf("%w: the envelope leaves part of the answer unused", ErrMalformed)
	}
	return u, nil
}

// orderedWalk is one answer's recomputation: what is left of the node
// records, D_S and D_P, the next row, and the level of the node whose
// entries Entry yields.
type orderedWalk struct {
	v      *Verifier
	rs     *vo.ResultSet
	nodes  []byte
	ds, dp []byte
	row    int
	level  int
	// resCol maps each schema column to its result column, -1 if it was
	// projected away.
	resCol []int
	// Per-row scratch: the key, one attribute's preimage
	// (digest.AppendAttrHead, then the canonical value), the row's tuple
	// preimage (digest.AppendTupleHead, then each attribute digest in its
	// place) and its tuple digest.
	key, val, pre []byte
	d             digest.Value
	// node receives each node digest: Recompute's caller copies it out
	// before the next node is recomputed.
	node [16]byte
}

// recompute recomputes the digest of the node whose record is next, at
// the given level. The digest is o.node, valid until the next call.
func (o *orderedWalk) recompute(level int) (digest.Value, error) {
	count, runs, rest, err := vo.NodeRecord(o.nodes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	o.nodes = rest
	s := digest.NewShape(count)
	k := s.Siblings(runs) * o.v.Acc.Len()
	if k > len(o.ds) {
		return nil, fmt.Errorf("%w: D_S ends inside a node's proof", ErrMalformed)
	}
	sibs := o.ds[:k]
	o.ds = o.ds[k:]
	above := o.level
	o.level = level
	u, err := o.v.Acc.Recompute(o.node[:0], level, o.rs.DB, o.rs.Table, count, runs, sibs, o)
	o.level = above
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return u, nil
}

// Entry yields the digest of the next recomputed position of the node at
// o.level: the next record's node, or in a leaf the next row's tuple.
func (o *orderedWalk) Entry(int) (digest.Value, error) {
	if o.level > 1 {
		return o.recompute(o.level - 1)
	}
	j := o.row
	if j >= len(o.rs.Tuples) {
		return nil, fmt.Errorf("%w: the envelope recomputes more rows than the answer has", ErrMalformed)
	}
	o.row++
	sch, size := o.v.Schema, o.v.Acc.Len()
	o.key = o.rs.Keys[j].EncodeKey(o.key[:0])
	o.pre = digest.AppendTupleHead(o.pre[:0], o.key)
	head := len(o.pre)
	// Every attribute slot is written below: grow without clearing.
	o.pre = slices.Grow(o.pre, len(o.resCol)*size)[:head+len(o.resCol)*size]
	for ci, i := range o.resCol {
		at := o.pre[head+ci*size : head+(ci+1)*size]
		if i < 0 {
			if len(o.dp) < size {
				return nil, fmt.Errorf("%w: D_P ends inside row %d", ErrMalformed, j)
			}
			copy(at, o.dp[:size])
			o.dp = o.dp[size:]
			continue
		}
		val := &o.rs.Tuples[j].Values[i]
		if val.Type != sch.Columns[ci].Type {
			return nil, fmt.Errorf("%w: tuple %d column %q has type %v, want %v",
				ErrMalformed, j, o.rs.Columns[i], val.Type, sch.Columns[ci].Type)
		}
		o.val = val.Canonical(digest.AppendAttrHead(o.val[:0], ci))
		o.v.Acc.HashAttr(at[:0], o.val)
	}
	o.d = o.v.Acc.HashTuple(o.d, o.pre)
	return o.d, nil
}
