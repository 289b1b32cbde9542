package vbtree

import (
	"edgeauth/internal/digest"
	"edgeauth/internal/schema"
	"edgeauth/internal/storage"
)

// Delete removes the tuple with the given key. ErrKeyNotFound if absent.
func (t *Tree) Delete(key schema.Datum) error {
	n, err := t.DeleteRange(&key, &key)
	if err != nil {
		return err
	}
	if n == 0 {
		return ErrKeyNotFound
	}
	return nil
}

// DeleteRange removes every tuple with lo <= key <= hi (nil = unbounded)
// and returns how many were removed. It deletes the tuples, then
// recomputes the digests on the paths to the affected leaves back up to
// the root, under the tree's write lock. Nodes are
// detached only when they become empty, and the leaf before the detached
// leaves then names the one after them as its next.
func (t *Tree) DeleteRange(lo, hi *schema.Datum) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var loB, hiB []byte
	if lo != nil {
		loB = lo.KeyBytes()
	}
	if hi != nil {
		hiB = hi.KeyBytes()
	}
	var chain chainGap
	res, err := t.deleteAt(t.root, t.height, loB, hiB, &chain)
	if err != nil {
		return 0, err
	}
	if res.removed == 0 {
		return 0, nil
	}
	if res.empty {
		// Everything gone: reset to a fresh empty leaf.
		if err := t.resetEmpty(); err != nil {
			return 0, err
		}
		return res.removed, nil
	}
	t.rootU = res.newU
	if err := t.closeGap(&chain); err != nil {
		return 0, err
	}
	// Collapse trivial roots (an internal root with a single child): the
	// child's stored entry is its digest.
	for {
		pt, err := t.pageType(t.root)
		if err != nil {
			return 0, err
		}
		if pt != storage.PageVBInternal {
			break
		}
		n, err := t.fetchInternal(t.root)
		if err != nil {
			return 0, err
		}
		if len(n.keys) > 0 {
			break
		}
		t.root = n.children[0]
		t.rootU = n.digests[0]
		t.height--
	}
	return res.removed, nil
}

type deleteResult struct {
	newU    digest.Value
	empty   bool
	removed int
}

// chainGap is the run of leaves a range delete empties — adjacent in key
// order, since they hold only keys of one range — and the leaves on
// either side of it, which the leaf chain must join.
type chainGap struct {
	first storage.PageID // the first emptied leaf; InvalidPageID if none
	// prev is the leaf before first; found is false until it is known,
	// and stays false when first is the leftmost leaf.
	prev  storage.PageID
	found bool
	next  storage.PageID // what the last emptied leaf names as next
}

// closeGap points the leaf before a run of emptied leaves at the leaf
// after it. The chain is not committed by any digest, so nothing is
// rehashed.
func (t *Tree) closeGap(g *chainGap) error {
	if !g.found {
		return nil
	}
	n, err := t.fetchLeaf(g.prev)
	if err != nil {
		return err
	}
	n.next = g.next
	return t.writeLeaf(g.prev, n)
}

// rightmostLeaf descends from the node pid at the given level to the last
// leaf under it.
func (t *Tree) rightmostLeaf(pid storage.PageID, level int) (storage.PageID, error) {
	for ; level > 1; level-- {
		n, err := t.fetchInternal(pid)
		if err != nil {
			return storage.InvalidPageID, err
		}
		pid = n.children[len(n.children)-1]
	}
	return pid, nil
}

// deleteAt deletes [lo, hi] under the node pid at the given level and
// rehashes the node if anything under it was removed. It records in gap
// the leaves it empties.
func (t *Tree) deleteAt(pid storage.PageID, level int, lo, hi []byte, gap *chainGap) (deleteResult, error) {
	pt, err := t.pageType(pid)
	if err != nil {
		return deleteResult{}, err
	}
	if pt == storage.PageVBLeaf {
		n, err := t.fetchLeaf(pid)
		if err != nil {
			return deleteResult{}, err
		}
		keep := &vbLeaf{next: n.next}
		removed := 0
		for i := range n.keys {
			inRange := (lo == nil || compare(n.keys[i], lo) >= 0) &&
				(hi == nil || compare(n.keys[i], hi) <= 0)
			if inRange {
				if err := t.heap.Delete(n.rids[i]); err != nil {
					return deleteResult{}, err
				}
				removed++
				continue
			}
			keep.keys = append(keep.keys, n.keys[i])
			keep.rids = append(keep.rids, n.rids[i])
			keep.digests = append(keep.digests, n.digests[i])
		}
		if removed == 0 {
			return deleteResult{}, nil
		}
		newU := t.commitOrdered(level, keep.digests, &keep.ordered, nil)
		if err := t.writeLeaf(pid, keep); err != nil {
			return deleteResult{}, err
		}
		if len(keep.keys) == 0 {
			if gap.first == storage.InvalidPageID {
				gap.first = pid
			}
			gap.next = n.next
			return deleteResult{empty: true, removed: removed}, nil
		}
		return deleteResult{newU: newU, removed: removed}, nil
	}

	n, err := t.fetchInternal(pid)
	if err != nil {
		return deleteResult{}, err
	}
	removed := 0
	var detaches []int
	for i := 0; i < len(n.children); i++ {
		clo, chi := n.childSpan(i)
		if !spanIntersects(clo, chi, lo, hi) {
			continue
		}
		emptied := gap.first != storage.InvalidPageID
		res, err := t.deleteAt(n.children[i], level-1, lo, hi, gap)
		if err != nil {
			return deleteResult{}, err
		}
		if !emptied && gap.first != storage.InvalidPageID && !gap.found && i > 0 {
			// The run of emptied leaves begins in child i, so the leaf
			// before it ends child i-1, which kept its leaves.
			if gap.prev, err = t.rightmostLeaf(n.children[i-1], level-1); err != nil {
				return deleteResult{}, err
			}
			gap.found = true
		}
		removed += res.removed
		if res.removed == 0 {
			continue
		}
		if res.empty {
			detaches = append(detaches, i)
			continue
		}
		n.digests[i] = res.newU
	}
	// Detach emptied children (highest index first to keep indices valid).
	for j := len(detaches) - 1; j >= 0; j-- {
		i := detaches[j]
		n.children = append(n.children[:i], n.children[i+1:]...)
		n.digests = append(n.digests[:i], n.digests[i+1:]...)
		switch {
		case len(n.keys) == 0:
			// Single-child node lost its child; handled below as empty.
		case i == 0:
			n.keys = n.keys[1:]
		default:
			n.keys = append(n.keys[:i-1], n.keys[i:]...)
		}
	}
	if removed == 0 {
		return deleteResult{}, nil
	}
	if len(n.children) == 0 {
		return deleteResult{empty: true, removed: removed}, nil
	}
	newU := t.commitOrdered(level, n.digests, &n.ordered, nil)
	if err := t.writeInternal(pid, n); err != nil {
		return deleteResult{}, err
	}
	return deleteResult{newU: newU, removed: removed}, nil
}
