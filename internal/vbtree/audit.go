package vbtree

import (
	"fmt"

	"edgeauth/internal/digest"
	"edgeauth/internal/storage"
	"edgeauth/internal/vo"
)

// Audit recomputes every digest in the tree from the raw tuple data —
// hashing each attribute, recombining tuple, node and root digests — and
// checks each against the stored signed digest. It returns the number of
// tuples audited. This is the full-recompute path that the paper's
// incremental insert avoids (the UPD ablation measures the gap), and a
// useful integrity check for a replica: a tampered edge copy fails it.
func (t *Tree) Audit() (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	u, n, err := t.auditNode(t.root)
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

// auditNode returns the node's recomputed unsigned digest and the tuple
// count underneath it.
func (t *Tree) auditNode(pid storage.PageID) (digest.Value, int, error) {
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
			if err := acc.Add(ut); err != nil {
				return nil, 0, err
			}
		}
		return acc.Value(), len(n.keys), nil
	}

	n, err := t.fetchInternal(pid)
	if err != nil {
		return nil, 0, err
	}
	acc := t.acc.NewAcc()
	total := 0
	for i, child := range n.children {
		u, cnt, err := t.auditNode(child)
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
		if err := acc.Add(u); err != nil {
			return nil, 0, err
		}
		total += cnt
	}
	return acc.Value(), total, nil
}
