package vbtree

import (
	"fmt"

	"edgeauth/internal/digest"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
)

// DefaultBuildChunk is the hash/pack granularity BuildFromSource uses
// when the caller passes chunkSize <= 0: large enough to keep the hashing
// worker pool busy, small enough that a streamed build never materializes
// the whole table.
const DefaultBuildChunk = 1024

// TupleSource yields the next run of at most limit tuples in strictly
// increasing key order; an empty slice (with a nil error) ends the
// stream. View.Tuples adapts a pinned snapshot view into this shape, so
// a new tree can be built from a live shard without a materialized scan.
type TupleSource func(limit int) ([]schema.Tuple, error)

// Build constructs a fully packed VB-tree from tuples sorted in strictly
// increasing primary-key order (the usual way the central server creates
// the index over an existing table). fill in (0,1] controls node occupancy.
//
// The paper signs every attribute, tuple and node digest, which "imposes
// processing overhead on the central server"; this tree signs only its
// root, when first asked. Hashing the attribute and tuple digests is the
// per-tuple cost, and a small worker pool does it.
func Build(cfg Config, tuples []schema.Tuple, fill float64) (*Tree, error) {
	// One chunk: the slice is already materialized, so present it to the
	// hashing pool whole, exactly as the pre-streaming builder did.
	return BuildFromSource(cfg, fill, len(tuples), SliceSource(tuples), nil)
}

// SliceSource streams an in-memory tuple slice (already in strictly
// increasing key order) as a TupleSource.
func SliceSource(tuples []schema.Tuple) TupleSource {
	return func(limit int) ([]schema.Tuple, error) {
		n := min(limit, len(tuples))
		out := tuples[:n]
		tuples = tuples[n:]
		return out, nil
	}
}

// BuildFromSource constructs a fully packed VB-tree by streaming tuples
// from src in chunks of chunkSize (<= 0 selects DefaultBuildChunk): each
// chunk is hashed by the worker pool, packed incrementally, and —
// when onChunk is non-nil — handed to the callback after it is packed,
// so a caller can e.g. seed the new shard's WAL in the same pass. The
// source must yield strictly increasing keys across its whole stream.
// This is the build path online resharding runs outside the partition
// lock: the source reads a pinned parent snapshot while live batches
// keep committing against the parent.
func BuildFromSource(cfg Config, fill float64, chunkSize int, src TupleSource, onChunk func([]schema.Tuple) error) (*Tree, error) {
	t, err := attach(cfg)
	if err != nil {
		return nil, err
	}
	if fill <= 0 || fill > 1 {
		return nil, fmt.Errorf("vbtree: fill factor %v out of (0,1]", fill)
	}
	if chunkSize <= 0 {
		chunkSize = DefaultBuildChunk
	}
	b := newStreamBuilder(t, fill)
	for {
		tuples, err := src(chunkSize)
		if err != nil {
			return nil, err
		}
		if len(tuples) == 0 {
			break
		}
		// Digests, parallel across the chunk (the same pool the batched
		// insert path uses).
		opErrs := make([]error, len(tuples))
		prep := t.prepareTuples(tuples, opErrs)
		for i, e := range opErrs {
			if e != nil {
				return nil, fmt.Errorf("vbtree: preparing tuple %d: %w", b.n+i, e)
			}
		}
		for i := range prep {
			if err := b.add(&prep[i]); err != nil {
				return nil, err
			}
		}
		if onChunk != nil {
			if err := onChunk(tuples); err != nil {
				return nil, err
			}
		}
	}
	return b.finish()
}

// levelEntry is one node's summary while the level above it is packed.
type levelEntry struct {
	firstKey []byte
	pid      storage.PageID
	u        digest.Value // node digest
}

// streamBuilder packs a VB-tree bottom-up from a strictly-ordered tuple
// stream: heap inserts and leaf packing happen per tuple as it arrives,
// so the builder's live state is one partial leaf plus the per-leaf
// summaries the internal levels need — never the whole tuple set.
type streamBuilder struct {
	t        *Tree
	pageSize int
	budget   int
	leaves   []levelEntry
	cur      vbLeaf
	curSize  int
	lastKey  []byte
	n        int // tuples accepted so far (the error-reporting index)
}

func newStreamBuilder(t *Tree, fill float64) *streamBuilder {
	pageSize := t.bp.PageSize()
	return &streamBuilder{
		t:        t,
		pageSize: pageSize,
		budget:   int(float64(pageSize) * fill),
		curSize:  vbLeafHeader,
	}
}

func (b *streamBuilder) flushLeaf() error {
	t := b.t
	f, err := t.bp.NewPage(storage.PageVBLeaf)
	if err != nil {
		return err
	}
	u := t.commitOrdered(1, b.cur.sigs, &b.cur.ordered, nil)
	if err := b.cur.encode(f.Page().Bytes()); err != nil {
		t.bp.Unpin(f, false)
		return err
	}
	b.leaves = append(b.leaves, levelEntry{firstKey: b.cur.keys[0], pid: f.ID(), u: u})
	t.bp.Unpin(f, true)
	b.cur = vbLeaf{}
	b.curSize = vbLeafHeader
	return nil
}

// add accepts the next prepared tuple: order check, heap insert, leaf
// packing.
func (b *streamBuilder) add(p *preparedTuple) error {
	if b.n > 0 && compare(b.lastKey, p.keyBytes) >= 0 {
		return fmt.Errorf("vbtree: tuples not in strictly increasing key order at %d", b.n)
	}
	entry := 2 + len(p.keyBytes) + 6 + 2 + len(p.dt)
	if vbLeafHeader+entry > b.pageSize {
		return fmt.Errorf("vbtree: entry %d of %d bytes exceeds page size", b.n, entry)
	}
	rid, err := b.t.heap.Insert(p.stored)
	if err != nil {
		return err
	}
	grown := b.curSize + entry + digest.StoredBytes(len(b.cur.keys)+1)
	if len(b.cur.keys) > 0 && (grown > b.budget || grown > b.pageSize) {
		if err := b.flushLeaf(); err != nil {
			return err
		}
	}
	b.cur.keys = append(b.cur.keys, p.keyBytes)
	b.cur.rids = append(b.cur.rids, rid)
	b.cur.sigs = append(b.cur.sigs, p.dt)
	b.curSize += entry
	b.lastKey = p.keyBytes
	b.n++
	return nil
}

// finish flushes the last leaf, chains the leaf level, packs the
// internal levels and seals the root — exactly once, however many
// chunks fed the builder.
func (b *streamBuilder) finish() (*Tree, error) {
	t := b.t
	if len(b.cur.keys) > 0 {
		if err := b.flushLeaf(); err != nil {
			return nil, err
		}
	}
	leaves := b.leaves
	if len(leaves) == 0 {
		// Empty table: a single empty leaf.
		if err := t.resetEmpty(); err != nil {
			return nil, err
		}
		return t, nil
	}
	// Chain the leaves.
	for i := 0; i < len(leaves)-1; i++ {
		n, err := t.fetchLeaf(leaves[i].pid)
		if err != nil {
			return nil, err
		}
		n.next = leaves[i+1].pid
		if err := t.writeLeaf(leaves[i].pid, n); err != nil {
			return nil, err
		}
	}

	// Internal levels.
	level := leaves
	t.height = 1
	for len(level) > 1 {
		var next []levelEntry
		var node vbInternal
		nodeSize := vbInternalHeader
		var nodeFirst []byte
		flushInternal := func() error {
			f, err := t.bp.NewPage(storage.PageVBInternal)
			if err != nil {
				return err
			}
			u := t.commitOrdered(t.height+1, node.sigs, &node.ordered, nil)
			if err := node.encode(f.Page().Bytes()); err != nil {
				t.bp.Unpin(f, false)
				return err
			}
			next = append(next, levelEntry{firstKey: nodeFirst, pid: f.ID(), u: u})
			t.bp.Unpin(f, true)
			node = vbInternal{}
			nodeSize = vbInternalHeader
			nodeFirst = nil
			return nil
		}
		addChild := func(c levelEntry) {
			cs := entry(c.u)
			if len(node.children) == 0 {
				node.children = []storage.PageID{c.pid}
				node.sigs = []sig.Signature{cs}
				nodeFirst = c.firstKey
				nodeSize += 4 + 2 + len(cs)
			} else {
				node.keys = append(node.keys, c.firstKey)
				node.children = append(node.children, c.pid)
				node.sigs = append(node.sigs, cs)
				nodeSize += 2 + len(c.firstKey) + 4 + 2 + len(cs)
			}
		}
		for _, child := range level {
			grown := nodeSize + 2 + len(child.firstKey) + 4 + 2 + t.acc.Len() + digest.StoredBytes(len(node.children)+1)
			if len(node.children) > 0 && (grown > b.budget || grown > b.pageSize) {
				if err := flushInternal(); err != nil {
					return nil, err
				}
			}
			addChild(child)
		}
		if len(node.children) > 0 {
			if err := flushInternal(); err != nil {
				return nil, err
			}
		}
		if len(next) >= len(level) {
			return nil, fmt.Errorf("vbtree: build failed to reduce level of %d nodes", len(level))
		}
		level = next
		t.height++
	}
	t.root = level[0].pid
	t.setRoot(level[0].u)
	return t, nil
}
