// Package vbtree implements the Verifiable B-tree of Pang & Tan (ICDE
// 2004): a B+-tree on the primary key of a table, extended with signed
// digests at every level —
//
//	attribute: d_a = s(h(db|table|attr|key|value))          (formula 1)
//	tuple:     D_T = s(Π g(d_a unsigned))                   (formula 2)
//	node:      D_N = s(Π g(U_child))                        (formula 3)
//
// — with the root's signed digest kept in the tree metadata. Under the
// Merkle schemes (rsa-merkle, ed25519), where only the root is signed,
// the three levels commit by ordered hashes instead (package digest):
// d_a and D_T are hashes, and D_N is the root of an in-node Merkle tree
// over the node's ordered entries, whose group digests the node's page
// stores. Tuples live
// in a heap file as vo.StoredTuple records (values + signed attribute
// digests); leaves store (key, record id, D_T); internal nodes store the
// signed digest of each child alongside the child pointer, exactly as in
// the paper's Figure 3.
//
// The tree plays two roles. At the trusted central server (Config.Signer
// set) it supports construction, insert and delete, maintaining digests
// incrementally via the commutative combiner. At an untrusted edge server
// (Signer nil) it answers range/filter/projection queries, producing a
// verification object over the enveloping subtree (paper §3.3).
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
	"time"

	"edgeauth/internal/digest"
	"edgeauth/internal/lock"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
	"edgeauth/internal/vo"
)

// Common errors.
var (
	ErrDuplicateKey = errors.New("vbtree: duplicate key")
	ErrKeyNotFound  = errors.New("vbtree: key not found")
	ErrReadOnly     = errors.New("vbtree: tree has no signer (edge replica is read-only)")
)

// Config assembles a tree's dependencies.
type Config struct {
	// Pool is the buffer pool holding the tree and heap pages.
	Pool *storage.BufferPool
	// Heap stores the vo.StoredTuple records.
	Heap *storage.HeapFile
	// Schema describes the indexed table.
	Schema *schema.Schema
	// Acc is the digest accumulator (hash h + combiner g).
	Acc *digest.Accumulator
	// Signer is the central server's private key; nil for edge replicas.
	Signer *sig.PrivateKey
	// Pub verifies/recovers digests; required.
	Pub *sig.PublicKey
	// Locks, when non-nil, enables the §3.4 locking protocol.
	Locks *lock.Manager
	// Now supplies timestamps for VOs; defaults to time.Now.
	Now func() int64
	// BuildParallelism bounds the signing workers used by Build.
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
	// rootSig is the root's sealed entry, sealed like every other node's
	// (sealDigest): its signature under the legacy scheme, the raw digest
	// under a Merkle scheme.
	rootSig sig.Signature

	// merkle is derived from Pub.Scheme: every entry (attribute, tuple and
	// node digests, the root's included) is stored as the raw unsigned
	// digest value, and the digests are the ordered hashes of package
	// digest, not the combiner's products: a raw product could be
	// rebalanced by whoever serves it. Each node's page also stores its
	// in-node group digests (node.go). A commit spends no signature at
	// all: the one signature a Merkle tree needs, over its root, is made
	// when someone asks for it (RootSig).
	merkle bool
	// rootU tracks the unsigned root digest alongside rootSig, so
	// RootDigest (the per-commit shard-map pin) costs no RSA recovery.
	rootU digest.Value

	// signed memoizes a Merkle root's signature: minted by the first
	// RootSig after the root changed (every root change resets it to nil,
	// under mu's write lock), or carried in by Open. sigMu orders the
	// readers that mint it under mu's read lock.
	sigMu  sync.Mutex
	signed sig.Signature

	buildPar int
}

// New creates an empty tree (a single empty leaf whose digest is the
// identity). Requires a signer.
func New(cfg Config) (*Tree, error) {
	t, err := attach(cfg)
	if err != nil {
		return nil, err
	}
	if t.signer == nil {
		return nil, ErrReadOnly
	}
	f, err := t.bp.NewPage(storage.PageVBLeaf)
	if err != nil {
		return nil, err
	}
	leaf := t.newLeaf()
	if err := leaf.encode(f.Page().Bytes()); err != nil {
		t.bp.Unpin(f, false)
		return nil, err
	}
	t.root = f.ID()
	t.bp.Unpin(f, true)
	t.height = 1
	if err := t.sealRoot(t.emptyDigest()); err != nil {
		return nil, err
	}
	return t, nil
}

// newLeaf returns an empty leaf of the tree's kind.
func (t *Tree) newLeaf() *vbLeaf { return &vbLeaf{ordered: ordered{on: t.merkle}} }

// emptyDigest is the digest of an empty table's root leaf: the combiner's
// identity under per-node rsa, the ordered hash of no entries under a
// Merkle scheme.
func (t *Tree) emptyDigest() digest.Value {
	if t.merkle {
		return t.commitOrdered(1, nil, new(ordered), nil)
	}
	return t.acc.Identity()
}

// commitOrdered recomputes an ordered node's group digests and returns its
// digest (digest.CommitNode; a nil dirty rehashes every group).
func (t *Tree) commitOrdered(level int, sigs []sig.Signature, o *ordered, dirty []bool) digest.Value {
	groups := make([]byte, digest.StoredBytes(len(sigs)))
	u := digest.CommitNode(t.acc, level, t.sch.DB, t.sch.Table, sigs, groups, o.groups, o.groupsN, dirty)
	o.groups, o.groupsN = groups, len(sigs)
	return u
}

// Open reattaches to an existing tree (e.g. an edge replica restored from
// a snapshot). rootSig is the root's signature, as RootSig returned it.
func Open(cfg Config, root storage.PageID, height int, rootSig sig.Signature) (*Tree, error) {
	t, err := attach(cfg)
	if err != nil {
		return nil, err
	}
	if root == storage.InvalidPageID || height < 1 || len(rootSig) == 0 {
		return nil, errors.New("vbtree: invalid tree metadata")
	}
	t.root = root
	t.height = height
	if !t.merkle {
		t.rootSig = rootSig.Clone()
		if t.rootU, err = t.recoverDigest(t.rootSig); err != nil {
			return nil, err
		}
		return t, nil
	}
	// No message recovery under a Merkle scheme: recompute the root digest
	// from the root page's stored entries and group digests, and keep the
	// signature for RootSig.
	u, err := t.nodeDigest(root, height)
	if err != nil {
		return nil, err
	}
	t.setRoot(u, sig.Signature(u))
	t.signed = rootSig.Clone()
	return t, nil
}

// nodeDigest recomputes an ordered node's digest from its page: one hash
// over its stored top-level digests.
func (t *Tree) nodeDigest(pid storage.PageID, level int) (digest.Value, error) {
	f, err := t.bp.Fetch(pid)
	if err != nil {
		return nil, err
	}
	defer t.bp.Unpin(f, false)
	return pageDigest(t.acc, t.sch, f.Page().Bytes(), level)
}

// pageDigest is an ordered node's digest as its page commits to it: the
// node hash over the stored top-level group digests, or over the entries
// when the node stores none.
func pageDigest(acc *digest.Accumulator, sch *schema.Schema, buf []byte, level int) (digest.Value, error) {
	var sigs []sig.Signature
	var groups []byte
	if storage.PageType(buf[0]) == storage.PageVBLeaf {
		n, err := decodeVBLeaf(buf, true)
		if err != nil {
			return nil, err
		}
		sigs, groups = n.sigs, n.groups
	} else {
		n, err := decodeVBInternal(buf, true)
		if err != nil {
			return nil, err
		}
		sigs, groups = n.sigs, n.groups
	}
	return digest.TopOf(acc, level, sch.DB, sch.Table, sigs, groups), nil
}

func attach(cfg Config) (*Tree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	now := cfg.Now
	if now == nil {
		now = func() int64 { return time.Now().Unix() }
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
		merkle:   cfg.Pub.Scheme.Merkle(),
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

// RootSig returns the signed digest of the root node — the value a client
// ultimately anchors trust in (via the VO's enveloping-subtree digest).
// Under the legacy scheme the tree signed it when the root last changed;
// under a Merkle scheme it is signed here, on the first call after the
// root changed, and kept until the next change. Nil if a Merkle tree
// opened without a signer has no signature to give.
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
	if !t.merkle {
		return t.rootSig, nil
	}
	t.sigMu.Lock()
	defer t.sigMu.Unlock()
	if t.signed == nil {
		rs, err := t.sign(t.rootU)
		if err != nil {
			return nil, err
		}
		t.signed = rs
	}
	return t.signed, nil
}

// RootDigest returns the unsigned root digest — the value a signed shard
// map pins for this tree. The tree tracks it alongside the root's sealed
// entry, so the per-commit call by the sharded central server costs no
// RSA recovery.
func (t *Tree) RootDigest() (digest.Value, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append(digest.Value(nil), t.rootU...), nil
}

// MerkleMode reports whether interior entries are raw, ordered Merkle
// commitments (only the root digest signed).
func (t *Tree) MerkleMode() bool { return t.merkle }

// lockRes names a page in the lock manager's space.
func (t *Tree) lockRes(id storage.PageID) lock.Resource {
	return lock.Resource{Space: "vb:" + t.sch.Table, ID: uint64(id)}
}

// sign signs an unsigned digest with the central server's key.
func (t *Tree) sign(u digest.Value) (sig.Signature, error) {
	if t.signer == nil {
		return nil, ErrReadOnly
	}
	return t.signer.Sign(u)
}

// sealDigest produces the stored form of a digest, the root's included:
// under a Merkle scheme the raw digest itself (a hash-only commitment),
// under the legacy scheme an RSA signature over it. A Merkle root is the
// anchor of trust all the same — it is signed when first asked for
// (RootSig), not when it is sealed.
func (t *Tree) sealDigest(u digest.Value) (sig.Signature, error) {
	if t.merkle {
		return sig.Signature(append([]byte(nil), u...)), nil
	}
	return t.sign(u)
}

// setRoot installs u as the root digest with its sealed entry (what
// sealDigest made of it) and drops the signature a Merkle root had. The
// caller holds t.mu for writing, or has the tree to itself.
func (t *Tree) setRoot(u digest.Value, sealed sig.Signature) {
	t.rootU, t.rootSig, t.signed = u, sealed, nil
}

// sealRoot seals u and installs it as the root digest.
func (t *Tree) sealRoot(u digest.Value) error {
	sealed, err := t.sealDigest(u)
	if err != nil {
		return err
	}
	t.setRoot(u, sealed)
	return nil
}

// childU returns the unsigned digest committed by a stored interior
// entry: a cast under a Merkle scheme, s⁻¹ under the legacy scheme.
func (t *Tree) childU(s sig.Signature) (digest.Value, error) {
	if t.merkle {
		if len(s) != t.acc.Len() {
			return nil, fmt.Errorf("vbtree: merkle entry has %d bytes, want %d", len(s), t.acc.Len())
		}
		return digest.Value(s), nil
	}
	return t.recoverDigest(s)
}

// storedLen is the byte length of one stored interior entry.
func (t *Tree) storedLen() int {
	if t.merkle {
		return t.acc.Len()
	}
	return t.pub.Len()
}

// recover applies s⁻¹ and validates the payload length.
func (t *Tree) recoverDigest(s sig.Signature) (digest.Value, error) {
	payload, err := t.pub.Recover(s)
	if err != nil {
		return nil, err
	}
	if len(payload) != t.acc.Len() {
		return nil, fmt.Errorf("vbtree: recovered digest has %d bytes, want %d", len(payload), t.acc.Len())
	}
	return digest.Value(payload), nil
}

// tupleDigests computes all unsigned attribute digests and the unsigned
// tuple digest: formulas (1) and (2) under per-node rsa, the ordered
// attribute and tuple hashes under a Merkle scheme (digest.TupleDigest).
func (t *Tree) tupleDigests(tup schema.Tuple) (attrs []digest.Value, ut digest.Value, err error) {
	if len(tup.Values) != len(t.sch.Columns) {
		return nil, nil, fmt.Errorf("vbtree: tuple has %d values for %d columns", len(tup.Values), len(t.sch.Columns))
	}
	keyBytes := tup.Key(t.sch).KeyBytes()
	attrs = make([]digest.Value, len(tup.Values))
	var flat []byte // the ordered attribute digests, back to back
	acc := t.acc.NewAcc()
	for i, v := range tup.Values {
		if v.Type != t.sch.Columns[i].Type {
			return nil, nil, fmt.Errorf("vbtree: column %q: value type %v, want %v",
				t.sch.Columns[i].Name, v.Type, t.sch.Columns[i].Type)
		}
		if t.merkle {
			attrs[i] = t.acc.AttrDigest(nil, i, v.CanonicalBytes())
			flat = append(flat, attrs[i]...)
			continue
		}
		attrs[i] = t.acc.HashAttribute(t.sch.DB, t.sch.Table, t.sch.Columns[i].Name, keyBytes, v.CanonicalBytes())
		if err := acc.Add(attrs[i]); err != nil {
			return nil, nil, err
		}
	}
	if t.merkle {
		return attrs, t.acc.TupleDigest(nil, keyBytes, flat), nil
	}
	return attrs, acc.Value(), nil
}

// makeStored seals the attribute digests (signing them under the legacy
// scheme, storing them raw under a Merkle scheme) and assembles the heap
// record.
func (t *Tree) makeStored(tup schema.Tuple, attrs []digest.Value) (*vo.StoredTuple, error) {
	st := &vo.StoredTuple{Tuple: tup, AttrSigs: make([]sig.Signature, len(attrs))}
	for i, a := range attrs {
		s, err := t.sealDigest(a)
		if err != nil {
			return nil, err
		}
		st.AttrSigs[i] = s
	}
	return st, nil
}

// Stats describes the tree's physical shape (Figures 8–9 measurements).
type Stats struct {
	Height            int
	InternalNodes     int
	LeafNodes         int
	Entries           int
	AvgInternalFanOut float64
	MaxLeafEntries    int
	MaxInternalFanOut int
}

// Stats walks the tree. keyLen parameterizes the analytic capacity bounds
// (formula (6): VB-tree fan-out for a given key and signature length).
func (t *Tree) Stats(keyLen int) (Stats, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	sigLen := t.storedLen()
	s := Stats{
		MaxLeafEntries:    MaxLeafEntries(t.bp.PageSize(), keyLen, sigLen),
		MaxInternalFanOut: MaxInternalFanOut(t.bp.PageSize(), keyLen, sigLen),
	}
	var totalChildren int
	var walk func(pid storage.PageID, depth int) error
	walk = func(pid storage.PageID, depth int) error {
		f, err := t.bp.Fetch(pid)
		if err != nil {
			return err
		}
		buf := f.Page().Bytes()
		switch storage.PageType(buf[0]) {
		case storage.PageVBLeaf:
			n, err := decodeVBLeaf(buf, t.merkle)
			t.bp.Unpin(f, false)
			if err != nil {
				return err
			}
			s.LeafNodes++
			s.Entries += len(n.keys)
			if depth+1 > s.Height {
				s.Height = depth + 1
			}
			return nil
		case storage.PageVBInternal:
			n, err := decodeVBInternal(buf, t.merkle)
			t.bp.Unpin(f, false)
			if err != nil {
				return err
			}
			s.InternalNodes++
			totalChildren += len(n.children)
			for _, c := range n.children {
				if err := walk(c, depth+1); err != nil {
					return err
				}
			}
			return nil
		default:
			t.bp.Unpin(f, false)
			return fmt.Errorf("vbtree: unexpected page type %d", buf[0])
		}
	}
	if err := walk(t.root, 0); err != nil {
		return Stats{}, err
	}
	if s.InternalNodes > 0 {
		s.AvgInternalFanOut = float64(totalChildren) / float64(s.InternalNodes)
	}
	return s, nil
}

// MaxLeafEntries is the leaf capacity for fixed key and signature lengths.
func MaxLeafEntries(pageSize, keyLen, sigLen int) int {
	return (pageSize - vbLeafHeader) / (2 + keyLen + 6 + 2 + sigLen)
}

// MaxInternalFanOut is the paper's formula (6): the VB-tree fan-out, where
// each child entry additionally carries a signed digest of length sigLen.
func MaxInternalFanOut(pageSize, keyLen, sigLen int) int {
	return 1 + (pageSize-vbInternalHeader-(2+sigLen)-4)/(2+keyLen+4+2+sigLen)
}
