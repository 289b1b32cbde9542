package vbtree

import (
	"bytes"
	"fmt"

	"edgeauth/internal/digest"
	"edgeauth/internal/storage"
	"edgeauth/internal/vo"
)

// Audit recomputes every digest in the tree from the raw tuple data —
// hashing each attribute, column group and tuple, rehashing every node's in-node group
// digests and node digest — and checks each against the one the tree
// stores, and the root's against its signature. It returns the number of
// tuples audited. This is the full-recompute path that the incremental
// insert avoids (the UPD ablation measures the gap), and a useful
// integrity check for a replica: a tampered edge copy fails it.
func (t *Tree) Audit() (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	u, n, err := t.auditNode(t.root, t.height)
	if err != nil {
		return n, err
	}
	// Recover-and-compare under rsa-merkle, detached verify under Ed25519.
	rs, err := t.rootSigLocked()
	if err != nil {
		return n, err
	}
	if err := t.pub.Verify(rs, u); err != nil {
		return n, fmt.Errorf("vbtree: root signature does not match recomputed digest: %w", err)
	}
	return n, nil
}

// auditNode returns the recomputed digest of the node pid at the given
// level and the tuple count underneath it.
func (t *Tree) auditNode(pid storage.PageID, level int) (digest.Value, int, error) {
	pt, err := t.pageType(pid)
	if err != nil {
		return nil, 0, err
	}
	if pt == storage.PageVBLeaf {
		n, err := t.fetchLeaf(pid)
		if err != nil {
			return nil, 0, err
		}
		uts := make([]digest.Value, len(n.keys))
		for i := range n.keys {
			rec, err := t.heap.Get(n.rids[i])
			if err != nil {
				return nil, 0, err
			}
			st, err := vo.DecodeStoredTuple(rec)
			if err != nil {
				return nil, 0, err
			}
			digests, ut, err := t.tupleDigests(st.Tuple)
			if err != nil {
				return nil, 0, err
			}
			// The stored column commitment and tuple digest must be the
			// recomputed ones.
			if !bytes.Equal(st.Digests, digests) {
				return nil, 0, fmt.Errorf("vbtree: leaf %d entry %d stores a column commitment that does not match its values", pid, i)
			}
			if !bytes.Equal(n.sigs[i], ut) {
				return nil, 0, fmt.Errorf("vbtree: leaf %d entry %d tuple digest mismatch", pid, i)
			}
			uts[i] = ut
		}
		u, err := t.auditGroups(pid, level, uts, n.groups)
		return u, len(n.keys), err
	}

	n, err := t.fetchInternal(pid)
	if err != nil {
		return nil, 0, err
	}
	total := 0
	us := make([]digest.Value, len(n.children))
	for i, child := range n.children {
		u, cnt, err := t.auditNode(child, level-1)
		if err != nil {
			return nil, 0, err
		}
		if !bytes.Equal(n.sigs[i], u) {
			return nil, 0, fmt.Errorf("vbtree: node %d child %d digest mismatch", pid, i)
		}
		us[i], total = u, total+cnt
	}
	u, err := t.auditGroups(pid, level, us, n.groups)
	return u, total, err
}

// auditGroups rehashes a node from its recomputed entries and checks the
// group digests its page stores against the ones it gets.
func (t *Tree) auditGroups(pid storage.PageID, level int, entries []digest.Value, stored []byte) (digest.Value, error) {
	groups := make([]byte, digest.StoredBytes(len(entries)))
	u := digest.CommitNode(t.acc, level, t.sch.DB, t.sch.Table, entries, groups, nil, 0, nil)
	if !bytes.Equal(groups, stored) {
		return nil, fmt.Errorf("vbtree: node %d stores group digests that do not match its entries", pid)
	}
	return u, nil
}
