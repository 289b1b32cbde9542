package verify

import (
	"bytes"
	"fmt"

	"edgeauth/internal/digest"
	"edgeauth/internal/vo"
)

// The tree commits by ordered hashes (package digest), and the VO
// carries the envelope from the root down (package vo). The verifier
// recomputes the root digest structurally: each node record's in-node
// proof is folded bottom-up (digest.Accumulator.Recompute), a recomputed
// position of a leaf being the next result row's tuple digest and one of
// an internal node the next record's node. A row's tuple digest is
// recomputed the same way over its column tree
// (digest.Accumulator.RecomputeTuple): a recomputed leaf is a returned
// non-key value, hashed, and the proof of the others is the row's share
// of D_P.

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
		v: v, rs: rs, an: an,
		nodes: w.Nodes, ds: w.DS, dp: w.DP,
		resCol: make([]int, len(v.Schema.Columns)),
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
	an     *anchored
	nodes  []byte
	ds, dp []byte
	row    int
	level  int
	// resCol maps each schema column to its result column, -1 if it was
	// projected away.
	resCol []int
	// Per-row scratch: the key, one attribute's preimage
	// (digest.AppendAttrHead, then the canonical value) and its digest,
	// and the row's tuple digest.
	key, val []byte
	attr     [digest.Size]byte
	d        digest.Value
	// node receives each node digest: Recompute's caller copies it out
	// before the next node is recomputed.
	node [digest.Size]byte
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
	sch := o.v.Schema
	o.key = o.rs.Keys[j].EncodeKey(o.key[:0])
	// The key column has no attribute digest: the tuple hash binds the
	// key, and a returned key column must be that key, bit for bit.
	if i := o.resCol[sch.Key]; i >= 0 {
		val := &o.rs.Tuples[j].Values[i]
		if val.Type != sch.KeyColumn().Type {
			return nil, fmt.Errorf("%w: tuple %d column %q has type %v, want %v",
				ErrMalformed, j, o.rs.Columns[i], val.Type, sch.KeyColumn().Type)
		}
		if o.val = val.EncodeKey(o.val[:0]); !bytes.Equal(o.val, o.key) {
			return nil, fmt.Errorf("%w: tuple %d returns %v in key column %q, its key is %v",
				ErrVerification, j, *val, o.rs.Columns[i], o.rs.Keys[j])
		}
	}
	k := o.an.colSibs * o.v.Acc.Len()
	if k > len(o.dp) {
		return nil, fmt.Errorf("%w: D_P ends inside row %d", ErrMalformed, j)
	}
	sibs := o.dp[:k]
	o.dp = o.dp[k:]
	var err error
	o.d, err = o.v.Acc.RecomputeTuple(o.d, o.key, &o.an.colShape, o.an.colRuns, sibs, (*rowColumns)(o))
	return o.d, err
}

// rowColumns yields the leaves the column tree of the row Entry last
// started recomputes: the attribute digests of its returned non-key
// values, hashed.
type rowColumns orderedWalk

// Entry hashes the value of the non-key column at leaf pos.
func (c *rowColumns) Entry(pos int) (digest.Value, error) {
	o := (*orderedWalk)(c)
	sch, j := o.v.Schema, o.row-1
	ci := pos // the leaves are the non-key columns in schema order
	if ci >= sch.Key {
		ci++
	}
	i := o.resCol[ci]
	val := &o.rs.Tuples[j].Values[i]
	if val.Type != sch.Columns[ci].Type {
		return nil, fmt.Errorf("%w: tuple %d column %q has type %v, want %v",
			ErrMalformed, j, o.rs.Columns[i], val.Type, sch.Columns[ci].Type)
	}
	o.val = val.Canonical(digest.AppendAttrHead(o.val[:0], ci))
	return o.v.Acc.HashAttr(o.attr[:0], o.val), nil
}
