package vbtree

import (
	"fmt"
	"sync"

	"edgeauth/internal/digest"
	"edgeauth/internal/lock"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
	"edgeauth/internal/vo"
)

// Inserts: one path, the central server's, for one tuple or many.
//
// InsertBatch places a whole batch in three phases:
//
//  1. prepare (parallel): each tuple's attribute and tuple digests are
//     computed by the same bounded worker pool Build uses — they depend
//     only on the schema and the tuple, not on tree state, and they are
//     the irreducible per-tuple cost.
//  2. structural (serial, under the tree lock): tuples are placed into
//     leaves, nodes split, the root grows — with no digest work at all.
//  3. repair: the dirty nodes are rehashed once each, bottom-up. A dirty
//     node installs its dirty children's new digests, then rehashes the
//     in-node groups over entries that changed or moved — every group
//     from the lowest insertion point on, every group of a node that
//     split or is new — and its node hash, keeping the stored digests of
//     the groups before it (computeOrdered). Shared ancestors, the root
//     above all, are rehashed once per batch, not once per tuple.
//
// The cost is formula (11) restated for ordered commitments
// (costmodel.OrderedInsertHashes). A commit signs nothing: the root is
// signed when first asked for (Tree.RootSig).

// Insert adds one tuple at the central server: a batch of one, returning
// that op's error (ErrDuplicateKey for a key already present).
func (t *Tree) Insert(tup schema.Tuple) error {
	_, opErrs, err := t.InsertBatch([]schema.Tuple{tup})
	if err != nil {
		return err
	}
	return opErrs[0]
}

// BatchStats reports what one committed batch cost.
type BatchStats struct {
	// Applied counts the tuples actually inserted (per-op failures such as
	// duplicate keys are skipped and reported in the error slice).
	Applied int
	// NodesResigned counts the tree nodes whose digest was re-signed by
	// the batch: none, since the root is signed when first asked for.
	NodesResigned int
}

// InsertBatch inserts tuples as one batch and returns per-op errors
// (index-aligned with tuples; nil = inserted) alongside the batch stats.
// A non-nil error is a storage-level failure that may leave the tree
// inconsistent. Tuples that fail individually (duplicate key, schema
// mismatch, oversized entry) do not abort the rest of the batch.
func (t *Tree) InsertBatch(tuples []schema.Tuple) (BatchStats, []error, error) {
	if len(tuples) == 0 {
		return BatchStats{}, nil, nil
	}
	opErrs := make([]error, len(tuples))

	// Phase 1: per-tuple digests, parallel across tuples.
	prep := t.prepareTuples(tuples, opErrs)

	t.mu.Lock()
	defer t.mu.Unlock()

	b := &treeBatch{
		t:      t,
		leaves: make(map[storage.PageID]*vbLeaf),
		inners: make(map[storage.PageID]*vbInternal),
		whole:  make(map[storage.PageID]bool),
		dirty:  make(map[storage.PageID]bool),
		shift:  make(map[storage.PageID]int),
	}
	if t.locks != nil {
		b.txn = t.locks.Begin()
		defer t.locks.ReleaseAll(b.txn)
	}

	// Phase 2: structural inserts; digests untouched, dirty set grows.
	applied := 0
	for i := range prep {
		if opErrs[i] != nil {
			continue
		}
		split, err := b.insertAt(t.root, &prep[i])
		if err != nil {
			if !isOpError(err) {
				return BatchStats{}, opErrs, err
			}
			opErrs[i] = err
			continue
		}
		if split != nil {
			if err := b.growRoot(split); err != nil {
				return BatchStats{}, opErrs, err
			}
		}
		applied++
	}
	if applied == 0 {
		return BatchStats{}, opErrs, nil
	}

	// Phase 3: repair — recompute each dirty node's digest once
	// (bottom-up), install, flush.
	if err := b.repair(); err != nil {
		return BatchStats{}, opErrs, err
	}
	return BatchStats{Applied: applied}, opErrs, nil
}

// preparedTuple carries one tuple's digests into the structural phase.
type preparedTuple struct {
	keyBytes []byte
	stored   []byte        // encoded heap record (tuple + column commitment)
	dt       sig.Signature // the tuple digest, as the leaf stores it
}

// prepareTuples runs phase 1 with the build worker pool; failures land in
// opErrs and leave the slot unused.
func (t *Tree) prepareTuples(tuples []schema.Tuple, opErrs []error) []preparedTuple {
	prep := make([]preparedTuple, len(tuples))
	parallel(len(tuples), t.buildPar, func(i int) {
		digests, ut, err := tupleDigests(t.acc, t.sch, tuples[i])
		if err != nil {
			opErrs[i] = opError(err)
			return
		}
		st := &vo.StoredTuple{Tuple: tuples[i], Digests: digests}
		dt := sig.Signature(ut)
		kb := tuples[i].Key(t.sch).KeyBytes()
		if maxEntry := vbLeafHeader + 2 + len(kb) + 6 + 2 + len(dt); maxEntry > t.bp.PageSize() {
			opErrs[i] = opError(fmt.Errorf("vbtree: leaf entry of %d bytes exceeds page size", maxEntry))
			return
		}
		prep[i] = preparedTuple{keyBytes: kb, stored: st.EncodeBytes(), dt: dt}
	})
	return prep
}

// parallel calls fn for 0..n-1 on min(par, n) workers; a single item runs
// on the caller's goroutine, so an insert of one starts none.
func parallel(n, par int, fn func(i int)) {
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < min(par, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

// batchOpError marks failures scoped to one tuple of a batch; the rest of
// the batch proceeds.
type batchOpError struct{ err error }

func (e *batchOpError) Error() string { return e.err.Error() }
func (e *batchOpError) Unwrap() error { return e.err }

func opError(err error) error { return &batchOpError{err: err} }

func isOpError(err error) bool {
	if _, ok := err.(*batchOpError); ok {
		return true
	}
	return err == ErrDuplicateKey
}

// treeBatch is the in-flight state of one InsertBatch: decoded nodes, the
// dirty set, and what repair needs to compute each dirty node's digest.
// The decoded node caches are authoritative over the page bytes until
// repair flushes them.
type treeBatch struct {
	t      *Tree
	leaves map[storage.PageID]*vbLeaf
	inners map[storage.PageID]*vbInternal
	// whole marks nodes that split or were created in this batch; repair
	// rehashes every group of them.
	whole map[storage.PageID]bool
	// dirty marks nodes whose subtree changed; exactly these are
	// rehashed. Dirtiness propagates to the root.
	dirty map[storage.PageID]bool
	// shift holds, for each node an entry was inserted into, the lowest
	// position an insertion took: every entry at or after it may have
	// moved, so an ordered node rehashes the groups from there on.
	shift map[storage.PageID]int
	txn   lock.TxnID
}

// insertedAt records an entry inserted at position i of node pid.
func (b *treeBatch) insertedAt(pid storage.PageID, i int) {
	if s, ok := b.shift[pid]; !ok || i < s {
		b.shift[pid] = i
	}
}

// vbSplit carries a split's separator and new right sibling to the
// parent.
type vbSplit struct {
	sep   []byte
	right storage.PageID
}

// placeholderSig reserves exactly one stored digest's worth of space in
// a node entry whose real value is produced by repair, keeping
// encodedSize checks exact during the structural phase.
func (b *treeBatch) placeholderSig() sig.Signature {
	return make(sig.Signature, b.t.acc.Len())
}

func (b *treeBatch) leaf(pid storage.PageID) (*vbLeaf, error) {
	if n, ok := b.leaves[pid]; ok {
		return n, nil
	}
	n, err := b.t.fetchLeaf(pid)
	if err != nil {
		return nil, err
	}
	b.leaves[pid] = n
	return n, nil
}

func (b *treeBatch) inner(pid storage.PageID) (*vbInternal, error) {
	if n, ok := b.inners[pid]; ok {
		return n, nil
	}
	n, err := b.t.fetchInternal(pid)
	if err != nil {
		return nil, err
	}
	b.inners[pid] = n
	return n, nil
}

// nodeType resolves a page's role through the decoded caches first, so
// nodes created during this batch (whose pages are not yet encoded) are
// classified correctly.
func (b *treeBatch) nodeType(pid storage.PageID) (storage.PageType, error) {
	if _, ok := b.leaves[pid]; ok {
		return storage.PageVBLeaf, nil
	}
	if _, ok := b.inners[pid]; ok {
		return storage.PageVBInternal, nil
	}
	return b.t.pageType(pid)
}

// insertAt inserts one prepared tuple under pid — structurally only. A
// returned split carries the new right sibling; digests are repaired
// after the whole batch has been placed.
func (b *treeBatch) insertAt(pid storage.PageID, pt *preparedTuple) (*vbSplit, error) {
	if err := b.t.xlock(b.txn, pid); err != nil {
		return nil, err
	}
	nt, err := b.nodeType(pid)
	if err != nil {
		return nil, err
	}
	if nt == storage.PageVBLeaf {
		return b.insertLeaf(pid, pt)
	}

	n, err := b.inner(pid)
	if err != nil {
		return nil, err
	}
	ci := n.childIndex(pt.keyBytes)
	split, err := b.insertAt(n.children[ci], pt)
	if err != nil {
		return nil, err
	}
	// The subtree under us changed, so our digest will too.
	b.dirty[pid] = true
	if split != nil {
		n.keys = insertKey(n.keys, ci, split.sep)
		n.children = insertChild(n.children, ci+1, split.right)
		b.insertedAt(pid, ci+1)
		// Digest-length placeholder (so size checks are exact); repair
		// hashes the new child once, at the end.
		n.sigs = insertSig(n.sigs, ci+1, b.placeholderSig())
	}
	if n.encodedSize() <= b.t.bp.PageSize() {
		return nil, nil
	}
	return b.splitInner(pid, n)
}

func (b *treeBatch) insertLeaf(pid storage.PageID, pt *preparedTuple) (*vbSplit, error) {
	n, err := b.leaf(pid)
	if err != nil {
		return nil, err
	}
	i := n.search(pt.keyBytes)
	if i < len(n.keys) && compare(n.keys[i], pt.keyBytes) == 0 {
		return nil, ErrDuplicateKey
	}
	rid, err := b.t.heap.Insert(pt.stored)
	if err != nil {
		return nil, err
	}
	n.keys = insertKey(n.keys, i, pt.keyBytes)
	n.rids = insertRID(n.rids, i, rid)
	n.sigs = insertSig(n.sigs, i, pt.dt)
	b.insertedAt(pid, i)
	b.dirty[pid] = true

	if n.encodedSize() <= b.t.bp.PageSize() {
		return nil, nil
	}

	mid := len(n.keys) / 2
	rf, err := b.t.bp.NewPage(storage.PageVBLeaf)
	if err != nil {
		return nil, err
	}
	rightPid := rf.ID()
	b.t.bp.Unpin(rf, true)
	right := &vbLeaf{
		next: n.next,
		keys: append([][]byte(nil), n.keys[mid:]...),
		rids: append([]storage.RecordID(nil), n.rids[mid:]...),
		sigs: append([]sig.Signature(nil), n.sigs[mid:]...),
	}
	n.keys = n.keys[:mid]
	n.rids = n.rids[:mid]
	n.sigs = n.sigs[:mid]
	n.next = rightPid
	if err := b.t.xlock(b.txn, rightPid); err != nil {
		return nil, err
	}
	b.leaves[rightPid] = right
	b.dirty[rightPid] = true
	b.whole[pid], b.whole[rightPid] = true, true
	return &vbSplit{sep: append([]byte(nil), right.keys[0]...), right: rightPid}, nil
}

// splitInner splits an overflowing internal node (structurally).
func (b *treeBatch) splitInner(pid storage.PageID, n *vbInternal) (*vbSplit, error) {
	mid := len(n.keys) / 2
	upKey := append([]byte(nil), n.keys[mid]...)
	rf, err := b.t.bp.NewPage(storage.PageVBInternal)
	if err != nil {
		return nil, err
	}
	rightPid := rf.ID()
	b.t.bp.Unpin(rf, true)
	right := &vbInternal{
		keys:     append([][]byte(nil), n.keys[mid+1:]...),
		children: append([]storage.PageID(nil), n.children[mid+1:]...),
		sigs:     append([]sig.Signature(nil), n.sigs[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	n.sigs = n.sigs[:mid+1]
	if err := b.t.xlock(b.txn, rightPid); err != nil {
		return nil, err
	}
	b.inners[rightPid] = right
	b.dirty[rightPid] = true
	b.whole[pid], b.whole[rightPid] = true, true
	return &vbSplit{sep: upKey, right: rightPid}, nil
}

// growRoot installs a new root over the split halves of the old one.
func (b *treeBatch) growRoot(split *vbSplit) error {
	f, err := b.t.bp.NewPage(storage.PageVBInternal)
	if err != nil {
		return err
	}
	newRootPid := f.ID()
	b.t.bp.Unpin(f, true)
	if err := b.t.xlock(b.txn, newRootPid); err != nil {
		return err
	}
	b.inners[newRootPid] = &vbInternal{
		keys:     [][]byte{split.sep},
		children: []storage.PageID{b.t.root, split.right},
		// Repair installs both children's digests, at the end.
		sigs: []sig.Signature{b.placeholderSig(), b.placeholderSig()},
	}
	b.dirty[newRootPid] = true
	b.whole[newRootPid] = true
	b.t.root = newRootPid
	b.t.height++
	return nil
}

// computeOrdered returns the digest of the dirty node pid at the given
// level: each dirty child's digest is computed and installed in its entry
// first, then the node rehashes the groups over changed or moved entries
// (every group, if it split or is new) and its node hash.
func (b *treeBatch) computeOrdered(pid storage.PageID, level int) (digest.Value, error) {
	whole := b.whole[pid]
	shift, shifted := b.shift[pid]
	moved := func(i int) bool { return shifted && i >= shift }
	if n, ok := b.leaves[pid]; ok {
		var dirty []bool
		if !whole {
			dirty = make([]bool, len(n.sigs))
			for i := range dirty {
				dirty[i] = moved(i)
			}
		}
		return b.t.commitOrdered(level, n.sigs, &n.ordered, dirty), nil
	}
	n, ok := b.inners[pid]
	if !ok {
		return nil, fmt.Errorf("vbtree: dirty node %d missing from batch cache", pid)
	}
	var dirty []bool
	if !whole {
		dirty = make([]bool, len(n.children))
	}
	for i, child := range n.children {
		if !b.dirty[child] {
			if dirty != nil {
				dirty[i] = moved(i)
			}
			continue
		}
		cu, err := b.computeOrdered(child, level-1)
		if err != nil {
			return nil, err
		}
		n.sigs[i] = entry(cu)
		if dirty != nil {
			dirty[i] = true
		}
	}
	return b.t.commitOrdered(level, n.sigs, &n.ordered, dirty), nil
}

// repair recomputes each dirty node's digest once (bottom-up from the
// root's dirty spine), installs the fresh entries into parents and the
// root digest, and flushes every dirtied page. No signature is produced:
// the root's is made when first asked for.
func (b *treeBatch) repair() error {
	u, err := b.computeOrdered(b.t.root, b.t.height)
	if err != nil {
		return err
	}
	// computeOrdered installed every dirty child's digest in its parent's
	// entry; flush the dirty pages.
	for pid, n := range b.inners {
		if !b.dirty[pid] {
			continue
		}
		if err := b.t.writeInternal(pid, n); err != nil {
			return err
		}
	}
	for pid, n := range b.leaves {
		if !b.dirty[pid] {
			continue
		}
		if err := b.t.writeLeaf(pid, n); err != nil {
			return err
		}
	}
	b.t.setRoot(u)
	return nil
}
