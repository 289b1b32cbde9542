// Package vbtree implements the Verifiable B-tree of Pang & Tan (ICDE
// 2004): a B+-tree on the primary key of a table, extended with digests
// at every level and one signature, over the root digest.
//
// The paper signs every attribute, tuple and node digest and combines
// them by multiplication (formulas (1)–(3)); package costmodel keeps that
// construction's costs. A product of digests that are not each signed can
// be rebalanced by whoever serves it, so this tree commits by ordered
// hashes instead (package digest): an attribute digest d_a and a tuple
// digest D_T are hashes, and a node digest D_N is the root of an in-node
// Merkle tree over the node's ordered entries, whose group digests the
// node's page stores. A tuple digest D_T commits to the tuple's non-key
// attribute digests through a column tree of its own. Tuples live in a
// heap file as vo.StoredTuple records (values + attribute and column group
// digests); leaves store (key, record id, D_T); internal nodes store the
// digest of each child alongside the child pointer, as in the paper's
// Figure 3.
//
// A Tree writes and a View reads. The Tree, held by the trusted central
// server, supports construction, insert and delete, rehashing only the
// nodes an update dirties. It holds no key: as in the paper, the owner
// signs the root digest (Tree.RootDigest) and everyone else only hashes.
// A View answers range/projection queries over a page space that does
// not change under it, producing a verification object that proves the
// answer against the signed root (paper §3.3), and audits every digest:
// an untrusted edge server reads its pinned snapshots through one
// (TableState.ViewOver), and so does the central, over its live pages
// (Tree.Read).
//
// The paper's §3.4 protocol (queries S-lock their enveloping subtree,
// updates X-lock their root-to-leaf paths) is not used: a write holds the
// Tree's write lock for its whole length, and readers query snapshots
// through a View, so no page lock could ever be contended.
package vbtree

import (
	"errors"
	"fmt"
	"sync"

	"edgeauth/internal/digest"
	"edgeauth/internal/lock"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
)

// Common errors.
var (
	ErrDuplicateKey = errors.New("vbtree: duplicate key")
	ErrKeyNotFound  = errors.New("vbtree: key not found")
)

// Config assembles a tree's dependencies.
type Config struct {
	// Pool is the buffer pool holding the tree and heap pages.
	Pool *storage.BufferPool
	// Heap stores the vo.StoredTuple records.
	Heap *storage.HeapFile
	// Schema describes the indexed table.
	Schema *schema.Schema
	// Acc is the digest accumulator (the ordered hashes of package
	// digest, and their counters).
	Acc *digest.Accumulator
	// Pub is the central server's public key, of a valid scheme; required.
	Pub *sig.PublicKey
	// Signer and Locks are ignored. They are shims that keep the
	// benchmark harness compiling: the tree signs nothing and takes no
	// page locks (see the package doc).
	Signer *sig.PrivateKey
	Locks  *lock.Manager
	// Now supplies timestamps for VOs; defaults to time.Now.
	Now func() int64
}

func (c *Config) validate() error {
	if c.Pool == nil || c.Heap == nil {
		return errors.New("vbtree: config requires Pool and Heap")
	}
	if c.Schema == nil {
		return errors.New("vbtree: config requires Schema")
	}
	if err := c.Schema.Validate(); err != nil {
		return err
	}
	if c.Acc == nil {
		return errors.New("vbtree: config requires Acc")
	}
	if c.Pub == nil {
		return errors.New("vbtree: config requires Pub")
	}
	if !c.Pub.Scheme.Valid() {
		return fmt.Errorf("vbtree: config Pub names no known scheme (%v)", c.Pub.Scheme)
	}
	return nil
}

// Tree is a verifiable B-tree.
type Tree struct {
	mu   sync.RWMutex
	bp   *storage.BufferPool
	heap *storage.HeapFile
	sch  *schema.Schema
	acc  *digest.Accumulator
	pub  *sig.PublicKey
	now  func() int64

	root   storage.PageID
	height int // levels, leaves = level 1
	// rootU is the root digest. Every stored entry (attribute, tuple and
	// node digests) is a digest; the node's page also stores its in-node
	// group digests (node.go). A commit spends no signature at all.
	rootU digest.Value
}

// New creates an empty tree (a single empty leaf).
func New(cfg Config) (*Tree, error) {
	t, err := attach(cfg)
	if err != nil {
		return nil, err
	}
	if err := t.resetEmpty(); err != nil {
		return nil, err
	}
	return t, nil
}

// resetEmpty makes a fresh empty leaf the root: the tree of an empty
// table.
func (t *Tree) resetEmpty() error {
	f, err := t.bp.NewPage(storage.PageVBLeaf)
	if err != nil {
		return err
	}
	var leaf vbLeaf
	u := t.commitOrdered(1, nil, &leaf.ordered, nil)
	if err := leaf.encode(f.Page().Bytes()); err != nil {
		t.bp.Unpin(f, false)
		return err
	}
	t.root = f.ID()
	t.bp.Unpin(f, true)
	t.height = 1
	t.rootU = u
	return nil
}

// commitOrdered recomputes a node's group digests and returns its digest
// (digest.CommitNode; a nil dirty rehashes every group).
func (t *Tree) commitOrdered(level int, digests []digest.Value, o *ordered, dirty []bool) digest.Value {
	groups := make([]byte, digest.StoredBytes(len(digests)))
	u := digest.CommitNode(t.acc, level, t.sch.DB, t.sch.Table, digests, groups, o.groups, o.groupsN, dirty)
	o.groups, o.groupsN = groups, len(digests)
	return u
}

// pageDigest is a node's digest as its page commits to it: the node hash
// over the stored top-level group digests, or over the entries when the
// node stores none.
func pageDigest(acc *digest.Accumulator, sch *schema.Schema, buf []byte, level int) (digest.Value, error) {
	var digests []digest.Value
	var groups []byte
	if storage.PageType(buf[0]) == storage.PageVBLeaf {
		n, err := decodeVBLeaf(buf)
		if err != nil {
			return nil, err
		}
		digests, groups = n.digests, n.groups
	} else {
		n, err := decodeVBInternal(buf)
		if err != nil {
			return nil, err
		}
		digests, groups = n.digests, n.groups
	}
	return digest.TopOf(acc, level, sch.DB, sch.Table, digests, groups), nil
}

// attach checks cfg and assembles a tree over it; the caller lays out its
// pages.
func attach(cfg Config) (*Tree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	now := cfg.Now
	if now == nil {
		now = unixNow
	}
	return &Tree{
		bp:   cfg.Pool,
		heap: cfg.Heap,
		sch:  cfg.Schema,
		acc:  cfg.Acc,
		pub:  cfg.Pub,
		now:  now,
	}, nil
}

// Schema returns the indexed table's schema.
func (t *Tree) Schema() *schema.Schema { return t.sch }

// Accumulator returns the digest accumulator.
func (t *Tree) Accumulator() *digest.Accumulator { return t.acc }

// Root returns the root page id.
func (t *Tree) Root() storage.PageID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.root
}

// Height returns the number of levels (leaves = 1).
func (t *Tree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.height
}

// RootDigest returns the root digest — the value the owner signs, and
// a signed shard map pins for this tree.
func (t *Tree) RootDigest() digest.Value {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rootU.Clone()
}

// tupleDigests computes a tuple's column commitment as its heap record
// stores it — the attribute digests of its non-key columns in schema
// order, then the group digests of the column tree over them
// (digest.ColumnDigests) — and its tuple digest (digest.AttrDigest,
// digest.TupleDigest). Writes commit a tuple with it, and View.Audit
// recomputes one.
func tupleDigests(acc *digest.Accumulator, sch *schema.Schema, tup schema.Tuple) (digests []byte, ut digest.Value, err error) {
	if len(tup.Values) != len(sch.Columns) {
		return nil, nil, fmt.Errorf("vbtree: tuple has %d values for %d columns", len(tup.Values), len(sch.Columns))
	}
	size := acc.Len()
	digests = make([]byte, digest.ColumnDigests(len(tup.Values))*size)
	at := 0
	for i, v := range tup.Values {
		if v.Type != sch.Columns[i].Type {
			return nil, nil, fmt.Errorf("vbtree: column %q: value type %v, want %v",
				sch.Columns[i].Name, v.Type, sch.Columns[i].Type)
		}
		if i == sch.Key {
			continue // the tuple hash binds the key itself
		}
		acc.AttrDigest(digests[at:at:at+size], i, v.CanonicalBytes())
		at += size
	}
	return digests, acc.TupleDigest(nil, tup.Key(sch).KeyBytes(), digests[:at], digests[at:]), nil
}

// MaxLeafEntries is the leaf capacity for fixed key and digest lengths:
// the most entries whose key, record id and digest fit a page beside the
// header and the group digests the leaf stores for them.
func MaxLeafEntries(pageSize, keyLen, digestLen int) int {
	room, entry := pageSize-vbLeafHeader, 2+keyLen+6+2+digestLen
	return shedForGroups(room/entry, room, func(n int) int { return n * entry })
}

// MaxInternalFanOut is the paper's formula (6): the VB-tree fan-out,
// where each child entry additionally carries its digest of length
// digestLen — counting, as formula (6) does not, the group digests the
// node stores for its children.
func MaxInternalFanOut(pageSize, keyLen, digestLen int) int {
	room, first, entry := pageSize-vbInternalHeader, 4+2+digestLen, 2+keyLen+4+2+digestLen
	return shedForGroups(1+(room-first)/entry, room, func(n int) int { return first + (n-1)*entry })
}

// shedForGroups steps n, the most entries that fit room bytes by their
// own size (entriesBytes), down until their group digests fit as well.
func shedForGroups(n, room int, entriesBytes func(n int) int) int {
	for n > 1 && entriesBytes(n)+digest.StoredBytes(n) > room {
		n--
	}
	return n
}
