package vbtree

import (
	"context"

	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/vo"
)

// Query describes a selection/projection over the indexed table.
type Query struct {
	// Lo/Hi bound the primary key (closed interval); nil means unbounded.
	Lo, Hi *schema.Datum
	// Filter, when non-nil, is an additional non-key predicate evaluated
	// on full base tuples; non-matching tuples inside the range become
	// "gaps" covered by D_S digests. The tuple is valid for the call only.
	Filter func(schema.Tuple) bool
	// FilterCols lists the schema indices of the columns Filter reads;
	// the tuple it is shown has only those values decoded. Nil means
	// every column.
	FilterCols []int
	// Project lists the columns to return; nil means all columns.
	// Filtered-out attributes are covered by D_P digests.
	Project []string
	// AnchorRoot asks for a VO that proves the answer against the root
	// digest, the one a signed shard map pins: sharded queries set it, so
	// the client can bind each per-shard answer to the map. Every VO is
	// so anchored — the ordered layout proves each answer from the root —
	// so a query that leaves it unset gets the same answer.
	AnchorRoot bool
}

// The Tree's read operations delegate to a View over the live buffer
// pool, holding the tree's read lock for the duration — the classic
// shared-mutable-pages mode used where the tree is also being updated in
// place (the central build path, disk-backed tools). Replicas instead
// construct Views directly over pinned immutable snapshots and take no
// locks at all; see NewView.

// viewLocked assembles the read view anchored at rootSig: the root
// digest serves a view that only reads tuples, a view whose VOs ship
// needs the root's signature (rootSigLocked). Callers hold t.mu.
func (t *Tree) viewLocked(rootSig sig.Signature) (*View, error) {
	return NewView(ViewConfig{
		Pages:     t.bp,
		HeapPages: t.heap.Pages(),
		Schema:    t.sch,
		Acc:       t.acc,
		Pub:       t.pub,
		Now:       t.now,
		Root:      t.root,
		Height:    t.height,
		RootSig:   rootSig,
	})
}

// Search returns the stored tuple with the given key, or found=false.
func (t *Tree) Search(key schema.Datum) (*vo.StoredTuple, bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v, err := t.viewLocked(sig.Signature(t.rootU))
	if err != nil {
		return nil, false, err
	}
	return v.Search(key)
}

// RunQuery executes q and returns the verifiable result: the projected
// tuples and the VO proving them against the signed root (paper §3.3). ctx is
// checked between page visits, so a cancelled caller stops the traversal
// and VO crypto early.
func (t *Tree) RunQuery(ctx context.Context, q Query) (*vo.ResultSet, *vo.VO, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rs, err := t.rootSigLocked()
	if err != nil {
		return nil, nil, err
	}
	v, err := t.viewLocked(rs)
	if err != nil {
		return nil, nil, err
	}
	return v.RunQuery(ctx, q)
}

// ScanAll returns every stored tuple in key order (a full-table helper for
// examples and tests; not part of the authenticated protocol).
func (t *Tree) ScanAll() ([]*vo.StoredTuple, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v, err := t.viewLocked(sig.Signature(t.rootU))
	if err != nil {
		return nil, err
	}
	return v.ScanAll()
}
