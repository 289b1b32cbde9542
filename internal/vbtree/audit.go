package vbtree

import (
	"bytes"
	"fmt"

	"edgeauth/internal/digest"
	"edgeauth/internal/storage"
	"edgeauth/internal/vo"
)

// Audit recomputes every digest of the view's tree from its pages and
// heap records — each attribute, column group and tuple digest from the
// record's values, each node's in-node group digests and node digest from
// its recomputed entries — and checks each against the one the pages
// store. It also checks what no digest commits to and every answer
// relies on: each leaf key is its record's key, keys ascend strictly
// along the leaf chain, each leaf's next pointer names the leaf after it
// in key order (none after the last), and every key lies within the
// separators above it. It returns the number of tuples and the
// recomputed root digest, which the caller checks against its own
// anchor: the root signature, the digest a signed shard map pins, or the
// writer's Tree.RootDigest. This is the full-recompute path that the
// incremental insert avoids (the UPD ablation measures the gap).
//
// The pages may be hostile: a malformed page fails the audit, and the
// chain checks fail a page reached twice at its first leaf, so the walk
// reads each page about once.
func (v *View) Audit() (int, digest.Value, error) {
	a := auditWalk{v: v}
	u, err := a.node(v.root, v.height, nil, nil)
	if err != nil {
		return a.tuples, nil, err
	}
	if a.next != storage.InvalidPageID {
		return a.tuples, nil, fmt.Errorf("vbtree: last leaf %d names page %d as the next leaf", a.last, a.next)
	}
	return a.tuples, u, nil
}

// auditWalk is the state of one Audit: the leaves are visited in key
// order, so each is checked against the one before it.
type auditWalk struct {
	v      *View
	tuples int
	leaves int
	// last is the last leaf visited and next its next pointer.
	last, next storage.PageID
	prevKey    []byte // the last key visited, nil before the first
}

// node returns the recomputed digest of the node pid at the given level
// (leaves are 1), every key under which must lie in [lo, hi) (nil:
// unbounded on that side).
func (a *auditWalk) node(pid storage.PageID, level int, lo, hi []byte) (digest.Value, error) {
	buf, err := a.v.page(pid)
	if err != nil {
		return nil, err
	}
	if level == 1 {
		return a.leaf(pid, buf, lo, hi)
	}
	n, err := decodeVBInternal(buf)
	if err != nil {
		return nil, fmt.Errorf("vbtree: node %d at level %d: %w", pid, level, err)
	}
	us := make([]digest.Value, len(n.children))
	for i, child := range n.children {
		// A child's keys lie within its separators and its parent's.
		clo, chi := n.childSpan(i)
		if clo == nil || (lo != nil && compare(lo, clo) > 0) {
			clo = lo
		}
		if chi == nil || (hi != nil && compare(hi, chi) < 0) {
			chi = hi
		}
		u, err := a.node(child, level-1, clo, chi)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(n.sigs[i], u) {
			return nil, fmt.Errorf("vbtree: node %d child %d digest mismatch", pid, i)
		}
		us[i] = u
	}
	return a.groups(pid, level, us, n.groups)
}

// leaf audits the leaf pid, whose page is buf, and returns its digest.
func (a *auditWalk) leaf(pid storage.PageID, buf []byte, lo, hi []byte) (digest.Value, error) {
	n, err := decodeVBLeaf(buf)
	if err != nil {
		return nil, fmt.Errorf("vbtree: node %d at level 1: %w", pid, err)
	}
	if a.leaves > 0 && a.next != pid {
		return nil, fmt.Errorf("vbtree: leaf %d names page %d as the next leaf, but leaf %d follows it", a.last, a.next, pid)
	}
	a.leaves++
	a.last, a.next = pid, n.next
	uts := make([]digest.Value, len(n.keys))
	for i, k := range n.keys {
		if a.prevKey != nil && compare(a.prevKey, k) >= 0 {
			return nil, fmt.Errorf("vbtree: leaf %d entry %d: key %x does not ascend from %x", pid, i, k, a.prevKey)
		}
		if (lo != nil && compare(k, lo) < 0) || (hi != nil && compare(k, hi) >= 0) {
			return nil, fmt.Errorf("vbtree: leaf %d entry %d: key %x lies outside the separators above it", pid, i, k)
		}
		a.prevKey = k
		rec, err := a.v.heap.View(n.rids[i])
		if err != nil {
			return nil, err
		}
		st, err := vo.DecodeStoredTuple(rec)
		if err != nil {
			return nil, err
		}
		digests, ut, err := tupleDigests(a.v.acc, a.v.sch, st.Tuple)
		if err != nil {
			return nil, err
		}
		if kb := st.Tuple.Key(a.v.sch).KeyBytes(); !bytes.Equal(kb, k) {
			return nil, fmt.Errorf("vbtree: leaf %d entry %d holds key %x, its record key %x", pid, i, k, kb)
		}
		// The stored column commitment and tuple digest must be the
		// recomputed ones.
		if !bytes.Equal(st.Digests, digests) {
			return nil, fmt.Errorf("vbtree: leaf %d entry %d stores a column commitment that does not match its values", pid, i)
		}
		if !bytes.Equal(n.sigs[i], ut) {
			return nil, fmt.Errorf("vbtree: leaf %d entry %d tuple digest mismatch", pid, i)
		}
		uts[i] = ut
	}
	a.tuples += len(n.keys)
	return a.groups(pid, 1, uts, n.groups)
}

// groups rehashes a node from its recomputed entries and checks the group
// digests its page stores against the ones it gets.
func (a *auditWalk) groups(pid storage.PageID, level int, entries []digest.Value, stored []byte) (digest.Value, error) {
	groups := make([]byte, digest.StoredBytes(len(entries)))
	sch := a.v.sch
	u := digest.CommitNode(a.v.acc, level, sch.DB, sch.Table, entries, groups, nil, 0, nil)
	if !bytes.Equal(groups, stored) {
		return nil, fmt.Errorf("vbtree: node %d stores group digests that do not match its entries", pid)
	}
	return u, nil
}

// Stats describes the tree's physical shape (Figures 8–9 measurements).
type Stats struct {
	Height            int
	InternalNodes     int
	LeafNodes         int
	Entries           int
	AvgInternalFanOut float64
	MaxLeafEntries    int
	MaxInternalFanOut int
}

// Stats walks the view's tree. keyLen parameterizes the analytic capacity
// bounds (formula (6): VB-tree fan-out for a given key length).
func (v *View) Stats(keyLen int) (Stats, error) {
	size := v.pr.PageSize()
	s := Stats{
		MaxLeafEntries:    MaxLeafEntries(size, keyLen, v.acc.Len()),
		MaxInternalFanOut: MaxInternalFanOut(size, keyLen, v.acc.Len()),
	}
	var totalChildren int
	var walk func(pid storage.PageID, depth int) error
	walk = func(pid storage.PageID, depth int) error {
		if depth == v.height {
			return fmt.Errorf("vbtree: page %d lies below the tree's %d levels", pid, v.height)
		}
		buf, err := v.page(pid)
		if err != nil {
			return err
		}
		if storage.PageType(buf[0]) == storage.PageVBLeaf {
			c, err := openLeaf(buf)
			if err != nil {
				return err
			}
			s.LeafNodes++
			s.Entries += c.count
			s.Height = max(s.Height, depth+1)
			return nil
		}
		n, err := decodeVBInternal(buf)
		if err != nil {
			return err
		}
		s.InternalNodes++
		totalChildren += len(n.children)
		for _, c := range n.children {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(v.root, 0); err != nil {
		return Stats{}, err
	}
	if s.InternalNodes > 0 {
		s.AvgInternalFanOut = float64(totalChildren) / float64(s.InternalNodes)
	}
	return s, nil
}
