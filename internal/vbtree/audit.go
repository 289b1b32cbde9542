package vbtree

import (
	"bytes"
	"fmt"

	"edgeauth/internal/digest"
	"edgeauth/internal/storage"
	"edgeauth/internal/vo"
)

// Audit recomputes every digest in the tree from the raw tuple data —
// hashing each attribute, recombining tuple, node and root digests — and
// checks each against the stored signed digest; under a Merkle scheme it
// also rehashes every node's in-node group digests and checks them
// against the ones its page stores. It returns the number of
// tuples audited. This is the full-recompute path that the paper's
// incremental insert avoids (the UPD ablation measures the gap), and a
// useful integrity check for a replica: a tampered edge copy fails it.
func (t *Tree) Audit() (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	u, n, err := t.auditNode(t.root, t.height)
	if err != nil {
		return n, err
	}
	// Scheme-agnostic root check: recover-and-compare under RSA, detached
	// verify under Ed25519.
	rs, err := t.rootSigLocked()
	if err != nil {
		return n, err
	}
	if err := t.pub.Verify(rs, u); err != nil {
		return n, fmt.Errorf("vbtree: root signature does not match recomputed digest: %w", err)
	}
	return n, nil
}

// auditNode returns the recomputed unsigned digest of the node pid at the
// given level and the tuple count underneath it.
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
		acc := t.acc.NewAcc()
		uts := make([]digest.Value, len(n.keys))
		for i := range n.keys {
			rec, err := t.heap.Get(n.rids[i])
			if err != nil {
				return nil, 0, err
			}
			st, _, err := vo.DecodeStoredTuple(rec)
			if err != nil {
				return nil, 0, err
			}
			attrs, ut, err := t.tupleDigests(st.Tuple)
			if err != nil {
				return nil, 0, err
			}
			// Attribute entries must commit to the recomputed digests
			// (recover-and-compare under the legacy scheme, byte compare
			// under Merkle).
			for c, as := range st.AttrSigs {
				got, err := t.childU(as)
				if err != nil {
					return nil, 0, fmt.Errorf("vbtree: leaf %d entry %d attr %d signature: %w", pid, i, c, err)
				}
				if !got.Equal(attrs[c]) {
					return nil, 0, fmt.Errorf("vbtree: leaf %d entry %d attr %q digest mismatch",
						pid, i, t.sch.Columns[c].Name)
				}
			}
			// The stored tuple digest must match too.
			stored, err := t.childU(n.sigs[i])
			if err != nil {
				return nil, 0, fmt.Errorf("vbtree: leaf %d entry %d tuple signature: %w", pid, i, err)
			}
			if !stored.Equal(ut) {
				return nil, 0, fmt.Errorf("vbtree: leaf %d entry %d tuple digest mismatch", pid, i)
			}
			uts[i] = ut
			if t.merkle {
				continue
			}
			if err := acc.Add(ut); err != nil {
				return nil, 0, err
			}
		}
		if t.merkle {
			u, err := t.auditGroups(pid, level, uts, n.groups)
			return u, len(n.keys), err
		}
		return acc.Value(), len(n.keys), nil
	}

	n, err := t.fetchInternal(pid)
	if err != nil {
		return nil, 0, err
	}
	acc := t.acc.NewAcc()
	total := 0
	us := make([]digest.Value, len(n.children))
	for i, child := range n.children {
		u, cnt, err := t.auditNode(child, level-1)
		if err != nil {
			return nil, 0, err
		}
		stored, err := t.childU(n.sigs[i])
		if err != nil {
			return nil, 0, fmt.Errorf("vbtree: node %d child %d signature: %w", pid, i, err)
		}
		if !stored.Equal(u) {
			return nil, 0, fmt.Errorf("vbtree: node %d child %d digest mismatch", pid, i)
		}
		us[i], total = u, total+cnt
		if t.merkle {
			continue
		}
		if err := acc.Add(u); err != nil {
			return nil, 0, err
		}
	}
	if t.merkle {
		u, err := t.auditGroups(pid, level, us, n.groups)
		return u, total, err
	}
	return acc.Value(), total, nil
}

// auditGroups rehashes an ordered node from its recomputed entries and
// checks the group digests its page stores against the ones it gets.
func (t *Tree) auditGroups(pid storage.PageID, level int, entries []digest.Value, stored []byte) (digest.Value, error) {
	groups := make([]byte, digest.StoredBytes(len(entries)))
	u := digest.CommitNode(t.acc, level, t.sch.DB, t.sch.Table, entries, groups, nil, 0, nil)
	if !bytes.Equal(groups, stored) {
		return nil, fmt.Errorf("vbtree: node %d stores group digests that do not match its entries", pid)
	}
	return u, nil
}
