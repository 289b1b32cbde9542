package vbtree

import (
	"fmt"

	"edgeauth/internal/schema"
	"edgeauth/internal/storage"
)

// TupleIter walks a View's leaf chain in key order, yielding tuples in
// bounded runs. It is shaped to serve as a TupleSource for
// BuildFromSource: resharding pins a parent snapshot, wraps it in a
// View, and streams one key range of it into a child build while the
// live shard keeps committing. The iterator keeps a cursor on a page of
// the view between calls, so the view's pages must not change for as
// long as it is used (the snapshot stays pinned); the tuples it yields
// are owned by the caller.
type TupleIter struct {
	v       *View
	lo      []byte // inclusive lower bound, nil = open
	hiEx    []byte // exclusive upper bound, nil = open
	cur     leafCursor
	started bool
	done    bool
}

// Tuples returns an iterator over the view's tuples with keys in
// [lo, hiEx) — hiEx is exclusive so a split boundary key lands in
// exactly one child. Nil bounds are open.
func (v *View) Tuples(lo, hiEx []byte) *TupleIter {
	return &TupleIter{v: v, lo: lo, hiEx: hiEx}
}

// Source adapts the iterator to the BuildFromSource contract.
func (it *TupleIter) Source() TupleSource {
	return it.Next
}

// Next yields the next run of at most limit tuples; an empty slice ends
// the stream. It satisfies TupleSource.
func (it *TupleIter) Next(limit int) ([]schema.Tuple, error) {
	if it.done || limit <= 0 {
		return nil, nil
	}
	if !it.started {
		buf, err := it.v.leafFor(it.lo)
		if err != nil {
			return nil, err
		}
		if it.cur, err = openLeaf(buf); err != nil {
			return nil, err
		}
		it.started = true
	}
	var out []schema.Tuple
	for len(out) < limit {
		ok, err := it.cur.advance()
		if err != nil {
			return nil, err
		}
		if !ok {
			if it.cur.next == storage.InvalidPageID {
				it.done = true
				break
			}
			buf, err := it.v.page(it.cur.next)
			if err != nil {
				return nil, err
			}
			if it.cur, err = openLeaf(buf); err != nil {
				return nil, err
			}
			continue
		}
		if it.lo != nil && compare(it.cur.key, it.lo) < 0 {
			continue
		}
		if it.hiEx != nil && compare(it.cur.key, it.hiEx) >= 0 {
			it.done = true
			break
		}
		st, err := it.v.loadStored(it.cur.rid)
		if err != nil {
			return nil, err
		}
		out = append(out, st.Tuple)
	}
	return out, nil
}

// KeyCount walks the leaf chain and returns the view's total tuple
// count without touching the heap.
func (v *View) KeyCount() (int, error) {
	buf, err := v.leafFor(nil)
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		c, err := openLeaf(buf)
		if err != nil {
			return 0, err
		}
		n += c.left
		if c.next == storage.InvalidPageID {
			return n, nil
		}
		if buf, err = v.page(c.next); err != nil {
			return 0, err
		}
	}
}

// TupleAt returns the i-th tuple (0-based) in key order — the key-median
// fallback for split boundary selection reads a single tuple this way.
func (v *View) TupleAt(i int) (schema.Tuple, error) {
	if i < 0 {
		return schema.Tuple{}, fmt.Errorf("vbtree: tuple index %d out of range", i)
	}
	buf, err := v.leafFor(nil)
	if err != nil {
		return schema.Tuple{}, err
	}
	seen := 0
	for {
		c, err := openLeaf(buf)
		if err != nil {
			return schema.Tuple{}, err
		}
		if i < seen+c.left {
			for skip := i - seen; skip >= 0; skip-- {
				if _, err := c.advance(); err != nil {
					return schema.Tuple{}, err
				}
			}
			st, err := v.loadStored(c.rid)
			if err != nil {
				return schema.Tuple{}, err
			}
			return st.Tuple, nil
		}
		seen += c.left
		if c.next == storage.InvalidPageID {
			return schema.Tuple{}, fmt.Errorf("vbtree: tuple index %d out of range", i)
		}
		if buf, err = v.page(c.next); err != nil {
			return schema.Tuple{}, err
		}
	}
}
