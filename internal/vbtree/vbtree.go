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
// server with its signing key, supports construction, insert and delete,
// rehashing only the nodes an update dirties. A View answers
// range/projection queries over a page space that does not change
// under it, producing a verification object that proves the answer
// against the signed root (paper §3.3), and audits every digest: an
// untrusted edge server reads its pinned snapshots through one
// (TableState.ViewOver), and so does the central, over its live pages
// (Tree.Read).
//
// When a lock.Manager is configured, operations follow the paper's §3.4
// protocol: queries S-lock the nodes of their enveloping subtree, updates
// X-lock the nodes on their root-to-leaf paths, so non-overlapping queries
// and updates proceed concurrently.
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
	ErrReadOnly     = errors.New("vbtree: tree has no signer (a reader reads through a View)")
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
	// Signer is the central server's private key; required.
	Signer *sig.PrivateKey
	// Pub is the central server's public key, of a valid scheme; required.
	Pub *sig.PublicKey
	// Locks, when non-nil, enables the §3.4 locking protocol.
	Locks *lock.Manager
	// Now supplies timestamps for VOs; defaults to time.Now.
	Now func() int64
	// BuildParallelism bounds the hashing workers used by Build.
	// Zero selects a reasonable default.
	BuildParallelism int
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
	mu     sync.RWMutex
	bp     *storage.BufferPool
	heap   *storage.HeapFile
	sch    *schema.Schema
	acc    *digest.Accumulator
	signer *sig.PrivateKey
	pub    *sig.PublicKey
	locks  *lock.Manager
	now    func() int64

	root   storage.PageID
	height int // levels, leaves = level 1
	// rootU is the root digest. Every stored entry (attribute, tuple and
	// node digests) is a raw digest; the node's page also stores its
	// in-node group digests (node.go). A commit spends no signature at
	// all: the one signature the tree needs, over rootU, is made when
	// someone asks for it (RootSig).
	rootU digest.Value

	// signed memoizes the root's signature: minted by the first RootSig
	// or signed Read after the root changed (every root change resets it
	// to nil, under mu's write lock). sigMu orders the readers that mint
	// it under mu's read lock.
	sigMu  sync.Mutex
	signed sig.Signature

	buildPar int
}

// New creates an empty tree (a single empty leaf). Requires a signer.
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
	t.setRoot(u)
	return nil
}

// commitOrdered recomputes a node's group digests and returns its digest
// (digest.CommitNode; a nil dirty rehashes every group).
func (t *Tree) commitOrdered(level int, sigs []sig.Signature, o *ordered, dirty []bool) digest.Value {
	groups := make([]byte, digest.StoredBytes(len(sigs)))
	u := digest.CommitNode(t.acc, level, t.sch.DB, t.sch.Table, sigs, groups, o.groups, o.groupsN, dirty)
	o.groups, o.groupsN = groups, len(sigs)
	return u
}

// pageDigest is a node's digest as its page commits to it: the node hash
// over the stored top-level group digests, or over the entries when the
// node stores none.
func pageDigest(acc *digest.Accumulator, sch *schema.Schema, buf []byte, level int) (digest.Value, error) {
	var sigs []sig.Signature
	var groups []byte
	if storage.PageType(buf[0]) == storage.PageVBLeaf {
		n, err := decodeVBLeaf(buf)
		if err != nil {
			return nil, err
		}
		sigs, groups = n.sigs, n.groups
	} else {
		n, err := decodeVBInternal(buf)
		if err != nil {
			return nil, err
		}
		sigs, groups = n.sigs, n.groups
	}
	return digest.TopOf(acc, level, sch.DB, sch.Table, sigs, groups), nil
}

// attach checks cfg and assembles a tree over it; the caller lays out its
// pages. A tree without a signer could not write, so there is none.
func attach(cfg Config) (*Tree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Signer == nil {
		return nil, ErrReadOnly
	}
	now := cfg.Now
	if now == nil {
		now = unixNow
	}
	par := cfg.BuildParallelism
	if par <= 0 {
		par = 4
	}
	return &Tree{
		bp:       cfg.Pool,
		heap:     cfg.Heap,
		sch:      cfg.Schema,
		acc:      cfg.Acc,
		signer:   cfg.Signer,
		pub:      cfg.Pub,
		locks:    cfg.Locks,
		now:      now,
		buildPar: par,
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

// RootSig returns the signature over the root digest — the value a
// client ultimately anchors trust in. It is signed here, on the first
// call after the root changed, and kept until the next change. Nil if
// signing fails.
func (t *Tree) RootSig() sig.Signature {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rs, err := t.rootSigLocked()
	if err != nil {
		return nil
	}
	return rs.Clone()
}

// rootSigLocked is RootSig for callers holding t.mu; the result is the
// tree's own and must not be modified.
func (t *Tree) rootSigLocked() (sig.Signature, error) {
	t.sigMu.Lock()
	defer t.sigMu.Unlock()
	if t.signed == nil {
		rs, err := t.signer.Sign(t.rootU)
		if err != nil {
			return nil, err
		}
		t.signed = rs
	}
	return t.signed, nil
}

// RootDigest returns the unsigned root digest — the value a signed shard
// map pins for this tree.
func (t *Tree) RootDigest() digest.Value {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rootU.Clone()
}

// lockRes names a page in the lock manager's space.
func (t *Tree) lockRes(id storage.PageID) lock.Resource {
	return lock.Resource{Space: "vb:" + t.sch.Table, ID: uint64(id)}
}

// entry is the stored form of a digest: the digest itself, in a
// Signature-typed slot of its own.
func entry(u digest.Value) sig.Signature { return sig.Signature(u.Clone()) }

// setRoot installs u as the root digest and drops the signature the old
// root had. The caller holds t.mu for writing, or has the tree to
// itself.
func (t *Tree) setRoot(u digest.Value) {
	t.rootU, t.signed = u, nil
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
