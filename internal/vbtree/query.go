package vbtree

import (
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
)

// Query describes what an edge answers: every row whose key lies in a
// closed range, projected. There is no filter: the client evaluates the
// rest of its query on the verified rows (query.Finish), so the one
// answer shape is a contiguous key range.
type Query struct {
	// Lo/Hi bound the primary key (closed interval); nil means unbounded.
	Lo, Hi *schema.Datum
	// Project lists the columns to return; nil means all columns.
	// The attributes left out are covered by D_P digests.
	Project []string
	// AnchorRoot asks for a VO that proves the answer against the root
	// digest, the one a signed shard map pins: sharded queries set it, so
	// the client can bind each per-shard answer to the map. Every VO is
	// so anchored — the ordered layout proves each answer from the root —
	// so a query that leaves it unset gets the same answer.
	AnchorRoot bool
}

// Read runs fn on a View of the tree's live pages, holding the tree's
// read lock until fn returns, so no write changes a page under it; the
// view must not be used after fn returns. A view whose VOs ship is
// anchored at the root's signature (signed, which mints it when the root
// changed since it was last asked for, as RootSig does); a view that only
// reads tuples, walks the shape or audits is anchored at the root digest,
// and the read signs nothing. Replicas read pinned snapshots through
// TableState.ViewOver instead, and take no lock at all.
func (t *Tree) Read(signed bool, fn func(v *View) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	anchor := sig.Signature(t.rootU)
	if signed {
		var err error
		if anchor, err = t.rootSigLocked(); err != nil {
			return err
		}
	}
	st := TableState{Root: t.root, Height: t.height, RootSig: anchor}
	v, err := st.ViewOver(t.bp, t.sch, t.acc, t.pub)
	if err != nil {
		return err
	}
	v.now = t.now
	return fn(v)
}
