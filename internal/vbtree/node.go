package vbtree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"edgeauth/internal/digest"
	"edgeauth/internal/storage"
)

// Node serialization (paper Figure 3(b)/(c)):
//
//	leaf:     type(1) | next(4) | count(2) | groups |
//	          { keyLen(2) key rid(6) digestLen(2) D_T }*
//	internal: type(1) | count(2) | groups | child0(4) digestLen(2) D_0 |
//	          { keyLen(2) key child(4) digestLen(2) D }*
//
// count is the number of keys; an internal node has count+1 (child, digest)
// pairs. The digest stored with each child pointer is the digest of that
// child's subtree, as the paper prescribes ("the node digest is stored
// with the corresponding child pointer in the parent"). groups is the
// node's in-node group digests (digest.CommitNode), digest.StoredBytes of
// the entry count. The tree writes every digest as digest.Size bytes,
// behind its length.
//
// The cursors below are the one parser of this layout: the read path
// walks a page with them in place, and decodeVBLeaf / decodeVBInternal
// copy what they yield into a node the write path can change.
const (
	vbLeafHeader     = 1 + 4 + 2
	vbInternalHeader = 1 + 2
)

type vbLeaf struct {
	next    storage.PageID
	keys    [][]byte
	rids    []storage.RecordID
	digests []digest.Value // D_T per entry
	ordered
}

type vbInternal struct {
	keys     [][]byte
	children []storage.PageID // len(keys)+1
	digests  []digest.Value   // len(keys)+1, child digests
	ordered
}

// ordered is what a node stores beside its entries: its in-node group
// digests, committed for groupsN entries.
type ordered struct {
	groups  []byte
	groupsN int
}

// writeGroups writes the group digests of n entries at buf[off:] and
// returns the offset of the first entry. They must have been committed
// for exactly n entries.
func (o *ordered) writeGroups(buf []byte, off, n int) (int, error) {
	if o.groupsN != n || len(o.groups) != digest.StoredBytes(n) {
		return 0, fmt.Errorf("vbtree: group digests committed for %d entries, node has %d", o.groupsN, n)
	}
	return off + copy(buf[off:], o.groups), nil
}

// decodeVBLeaf copies a leaf page into a node the caller owns.
func decodeVBLeaf(buf []byte) (*vbLeaf, error) {
	c, err := openLeaf(buf)
	if err != nil {
		return nil, err
	}
	n := &vbLeaf{
		next:    c.next,
		keys:    make([][]byte, 0, c.count),
		rids:    make([]storage.RecordID, 0, c.count),
		digests: make([]digest.Value, 0, c.count),
		ordered: ordered{groups: bytes.Clone(c.groups), groupsN: c.count},
	}
	for {
		ok, err := c.advance()
		if err != nil {
			return nil, err
		}
		if !ok {
			return n, nil
		}
		n.keys = append(n.keys, bytes.Clone(c.key))
		n.rids = append(n.rids, c.rid)
		n.digests = append(n.digests, bytes.Clone(c.dig))
	}
}

func (n *vbLeaf) encodedSize() int {
	sz := vbLeafHeader + digest.StoredBytes(len(n.keys))
	for i := range n.keys {
		sz += 2 + len(n.keys[i]) + 6 + 2 + len(n.digests[i])
	}
	return sz
}

func (n *vbLeaf) encode(buf []byte) error {
	if n.encodedSize() > len(buf) {
		return fmt.Errorf("vbtree: leaf of %d bytes exceeds page size %d", n.encodedSize(), len(buf))
	}
	buf[0] = byte(storage.PageVBLeaf)
	binary.BigEndian.PutUint32(buf[1:5], uint32(n.next))
	binary.BigEndian.PutUint16(buf[5:7], uint16(len(n.keys)))
	off, err := n.writeGroups(buf, vbLeafHeader, len(n.keys))
	if err != nil {
		return err
	}
	for i := range n.keys {
		binary.BigEndian.PutUint16(buf[off:off+2], uint16(len(n.keys[i])))
		off += 2
		copy(buf[off:], n.keys[i])
		off += len(n.keys[i])
		ridb := n.rids[i].Encode(nil)
		copy(buf[off:], ridb)
		off += 6
		binary.BigEndian.PutUint16(buf[off:off+2], uint16(len(n.digests[i])))
		off += 2
		copy(buf[off:], n.digests[i])
		off += len(n.digests[i])
	}
	for ; off < len(buf); off++ {
		buf[off] = 0
	}
	return nil
}

// search returns the index of the first key >= k.
func (n *vbLeaf) search(k []byte) int {
	return sort.Search(len(n.keys), func(i int) bool { return compare(n.keys[i], k) >= 0 })
}

// decodeVBInternal copies an internal node's page into a node the
// caller owns.
func decodeVBInternal(buf []byte) (*vbInternal, error) {
	c, err := openInternal(buf)
	if err != nil {
		return nil, err
	}
	n := &vbInternal{
		keys:     make([][]byte, 0, c.count-1),
		children: make([]storage.PageID, 0, c.count),
		digests:  make([]digest.Value, 0, c.count),
		ordered:  ordered{groups: bytes.Clone(c.groups), groupsN: c.count},
	}
	for {
		ok, err := c.advance()
		if err != nil {
			return nil, err
		}
		if !ok {
			return n, nil
		}
		if c.lo != nil {
			n.keys = append(n.keys, bytes.Clone(c.lo))
		}
		n.children = append(n.children, c.child)
		n.digests = append(n.digests, bytes.Clone(c.dig))
	}
}

func (n *vbInternal) encodedSize() int {
	sz := vbInternalHeader + digest.StoredBytes(len(n.children)) + 4 + 2 + len(n.digests[0])
	for i := range n.keys {
		sz += 2 + len(n.keys[i]) + 4 + 2 + len(n.digests[i+1])
	}
	return sz
}

func (n *vbInternal) encode(buf []byte) error {
	if n.encodedSize() > len(buf) {
		return fmt.Errorf("vbtree: internal node of %d bytes exceeds page size %d", n.encodedSize(), len(buf))
	}
	buf[0] = byte(storage.PageVBInternal)
	binary.BigEndian.PutUint16(buf[1:3], uint16(len(n.keys)))
	off, err := n.writeGroups(buf, vbInternalHeader, len(n.children))
	if err != nil {
		return err
	}
	writeChild := func(i int) {
		binary.BigEndian.PutUint32(buf[off:off+4], uint32(n.children[i]))
		off += 4
		binary.BigEndian.PutUint16(buf[off:off+2], uint16(len(n.digests[i])))
		off += 2
		copy(buf[off:], n.digests[i])
		off += len(n.digests[i])
	}
	writeChild(0)
	for i := range n.keys {
		binary.BigEndian.PutUint16(buf[off:off+2], uint16(len(n.keys[i])))
		off += 2
		copy(buf[off:], n.keys[i])
		off += len(n.keys[i])
		writeChild(i + 1)
	}
	for ; off < len(buf); off++ {
		buf[off] = 0
	}
	return nil
}

// childIndex returns which child covers key k.
func (n *vbInternal) childIndex(k []byte) int {
	return sort.Search(len(n.keys), func(i int) bool { return compare(n.keys[i], k) > 0 })
}

// childSpan returns the key interval [lo, hi) covered by child i, with nil
// meaning unbounded on that side.
func (n *vbInternal) childSpan(i int) (lo, hi []byte) {
	if i > 0 {
		lo = n.keys[i-1]
	}
	if i < len(n.keys) {
		hi = n.keys[i]
	}
	return lo, hi
}

// spanIntersects reports whether child span [clo, chi) intersects the
// closed query interval [qlo, qhi] (nil = unbounded).
func spanIntersects(clo, chi, qlo, qhi []byte) bool {
	if chi != nil && qlo != nil && compare(chi, qlo) <= 0 {
		return false // child entirely below the query
	}
	if clo != nil && qhi != nil && compare(clo, qhi) > 0 {
		return false // child entirely above the query
	}
	return true
}

func compare(a, b []byte) int { return bytes.Compare(a, b) }

// The read path does not decode nodes into vbLeaf/vbInternal: it walks
// the page bytes with the two cursors below, which copy nothing. Every
// slice a cursor exposes (key, dig, lo, hi) is a slice of the page it was
// opened on — valid, and to be read only, until that page can change:
// for a page of a pinned storage.Snapshot, until the pin is released.

// leafCursor walks a VB leaf's entries in key order.
type leafCursor struct {
	buf  []byte
	off  int
	left int // entries not yet read
	next storage.PageID
	// count is the leaf's entry count and groups its stored group digests.
	count  int
	groups []byte
	// The current entry, set by advance.
	key []byte
	rid storage.RecordID
	dig []byte // D_T
}

func openLeaf(buf []byte) (leafCursor, error) {
	if len(buf) < vbLeafHeader {
		return leafCursor{}, errors.New("vbtree: leaf header truncated")
	}
	if storage.PageType(buf[0]) != storage.PageVBLeaf {
		return leafCursor{}, fmt.Errorf("vbtree: page type %d is not a VB leaf", buf[0])
	}
	count := int(binary.BigEndian.Uint16(buf[5:7]))
	groups, err := pageGroups(buf, vbLeafHeader, count)
	if err != nil {
		return leafCursor{}, err
	}
	return leafCursor{
		buf:    buf,
		off:    vbLeafHeader + len(groups),
		left:   count,
		next:   storage.PageID(binary.BigEndian.Uint32(buf[1:5])),
		count:  count,
		groups: groups,
	}, nil
}

// pageGroups returns the stored group digests of a node of n entries
// whose header ends at off, in place.
func pageGroups(buf []byte, off, n int) ([]byte, error) {
	g := digest.StoredBytes(n)
	if off+g > len(buf) {
		return nil, fmt.Errorf("vbtree: group digests truncated")
	}
	return buf[off : off+g : off+g], nil
}

// advance moves to the next entry; false means the leaf is exhausted.
func (c *leafCursor) advance() (bool, error) {
	if c.left == 0 {
		return false, nil
	}
	buf, off := c.buf, c.off
	if off+2 > len(buf) {
		return false, fmt.Errorf("vbtree: leaf entry truncated at offset %d", off)
	}
	kl := int(binary.BigEndian.Uint16(buf[off:]))
	off += 2
	if off+kl+6+2 > len(buf) {
		return false, fmt.Errorf("vbtree: leaf entry truncated at offset %d", off)
	}
	c.key = buf[off : off+kl : off+kl]
	off += kl
	c.rid = storage.RecordID{
		Page: storage.PageID(binary.BigEndian.Uint32(buf[off:])),
		Slot: binary.BigEndian.Uint16(buf[off+4:]),
	}
	off += 6
	sl := int(binary.BigEndian.Uint16(buf[off:]))
	off += 2
	if off+sl > len(buf) {
		return false, fmt.Errorf("vbtree: leaf digest truncated at offset %d", off)
	}
	c.dig = buf[off : off+sl : off+sl]
	c.off = off + sl
	c.left--
	return true, nil
}

// internalCursor walks a VB internal node's children left to right.
type internalCursor struct {
	buf  []byte
	off  int
	left int // children not yet read
	// count is the node's child count and groups its stored group digests.
	count  int
	groups []byte
	// The current child, set by advance: its page, the digest stored with
	// its pointer, and the key interval [lo, hi) it covers (nil =
	// unbounded on that side).
	child  storage.PageID
	dig    []byte
	lo, hi []byte
}

func openInternal(buf []byte) (internalCursor, error) {
	if len(buf) < vbInternalHeader {
		return internalCursor{}, errors.New("vbtree: internal node header truncated")
	}
	if storage.PageType(buf[0]) != storage.PageVBInternal {
		return internalCursor{}, fmt.Errorf("vbtree: page type %d is not a VB internal node", buf[0])
	}
	count := int(binary.BigEndian.Uint16(buf[1:3])) + 1
	groups, err := pageGroups(buf, vbInternalHeader, count)
	if err != nil {
		return internalCursor{}, err
	}
	return internalCursor{
		buf:    buf,
		off:    vbInternalHeader + len(groups),
		left:   count,
		count:  count,
		groups: groups,
	}, nil
}

// advance moves to the next child; false means the node is exhausted.
func (c *internalCursor) advance() (bool, error) {
	if c.left == 0 {
		return false, nil
	}
	buf, off := c.buf, c.off
	if off+4+2 > len(buf) {
		return false, fmt.Errorf("vbtree: internal child truncated at offset %d", off)
	}
	c.child = storage.PageID(binary.BigEndian.Uint32(buf[off:]))
	sl := int(binary.BigEndian.Uint16(buf[off+4:]))
	off += 6
	if off+sl > len(buf) {
		return false, fmt.Errorf("vbtree: internal digest truncated at offset %d", off)
	}
	c.dig = buf[off : off+sl : off+sl]
	off += sl
	c.left--
	c.lo, c.hi = c.hi, nil
	if c.left > 0 {
		// The separator key after this child is its upper bound.
		if off+2 > len(buf) {
			return false, fmt.Errorf("vbtree: internal key truncated at offset %d", off)
		}
		kl := int(binary.BigEndian.Uint16(buf[off:]))
		off += 2
		if off+kl > len(buf) {
			return false, fmt.Errorf("vbtree: internal key truncated at offset %d", off)
		}
		c.hi = buf[off : off+kl : off+kl]
		off += kl
	}
	c.off = off
	return true, nil
}

// seek advances to the child covering key k (the leftmost child for a
// nil k): the first whose upper bound lies above k.
func (c *internalCursor) seek(k []byte) error {
	for {
		ok, err := c.advance()
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("vbtree: internal node has no children")
		}
		if k == nil || c.hi == nil || compare(c.hi, k) > 0 {
			return nil
		}
	}
}

// fetchLeaf / fetchInternal decode a pinned page and release the pin.
func (t *Tree) fetchLeaf(pid storage.PageID) (*vbLeaf, error) {
	f, err := t.bp.Fetch(pid)
	if err != nil {
		return nil, err
	}
	n, err := decodeVBLeaf(f.Page().Bytes())
	t.bp.Unpin(f, false)
	return n, err
}

func (t *Tree) fetchInternal(pid storage.PageID) (*vbInternal, error) {
	f, err := t.bp.Fetch(pid)
	if err != nil {
		return nil, err
	}
	n, err := decodeVBInternal(f.Page().Bytes())
	t.bp.Unpin(f, false)
	return n, err
}

// pageType peeks a page's type byte.
func (t *Tree) pageType(pid storage.PageID) (storage.PageType, error) {
	f, err := t.bp.Fetch(pid)
	if err != nil {
		return 0, err
	}
	pt := storage.PageType(f.Page().Bytes()[0])
	t.bp.Unpin(f, false)
	return pt, nil
}

// writeLeaf encodes n into its page.
func (t *Tree) writeLeaf(pid storage.PageID, n *vbLeaf) error {
	f, err := t.bp.Fetch(pid)
	if err != nil {
		return err
	}
	err = n.encode(f.Page().Bytes())
	t.bp.Unpin(f, err == nil)
	return err
}

// writeInternal encodes n into its page.
func (t *Tree) writeInternal(pid storage.PageID, n *vbInternal) error {
	f, err := t.bp.Fetch(pid)
	if err != nil {
		return err
	}
	err = n.encode(f.Page().Bytes())
	t.bp.Unpin(f, err == nil)
	return err
}
