package digest

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Ordered commitments: how the VB-tree commits, under every scheme.
//
// Only the root digest is signed, and every other digest travels raw. A
// product of raw factors can be rebalanced — an edge that rewrites a
// value multiplies some other factor by h(old)·h(new)⁻¹ and the product
// is unchanged — so the tree does not combine by multiplication at any
// level. Each level commits to an ordered hash of
// the level below instead, H being SHA-256 truncated to 16 bytes:
//
//	attribute: d_i = H(0x01 ‖ u16 i ‖ canonical value)
//	tuple:     T   = H(0x02 ‖ u16 len(key) ‖ key ‖ d_1 ‖ … ‖ d_N)
//	group:     G   = H(0x03 ‖ c_1 ‖ … ‖ c_k)
//	node:      D_N = H(0x04 ‖ u8 level ‖ u16 n ‖ u16 len(db) ‖ db ‖ u16 len(table) ‖ table ‖ c_1 ‖ … ‖ c_k)
//
// An attribute's preimage is one SHA-256 block for values up to 52 bytes;
// the database and table are bound once per node, the key once per tuple.
//
// # The in-node tree
//
// A node's digest commits to its n ordered entries (tuple digests in a
// leaf, child node digests in an internal node) through a Merkle tree of
// arity Arity: the entries are hashed in consecutive groups of Arity into
// group digests, those again, until at most Arity remain, and the node
// hash covers those (Shape). The group digests are stored in the node's
// page, so a proof copies them and never hashes at query time. The node
// hash binds n and the level, which fix the shape, and the database and
// table the tree indexes.
//
// A proof of a node names the entries the verifier recomputes — as runs
// of consecutive positions — and carries exactly one digest for each
// maximal in-node subtree holding none of them (Shape.Siblings), in left
// to right order. One position costs at most Arity − 1 digests per
// in-node level, not n − 1.

// Arity is the fan-out of the in-node tree, chosen by measurement: at 8,
// one position's proof is at most 7 digests per in-node level, and a 4 KB
// leaf of 112 entries stores 16 group digests. Arity 16 stored half as
// many and shipped a quarter more (a point read's VO 847 bytes where 8
// gives 671), at no better verified-read rate.
const Arity = 8

// Domain tags of the four ordered-hash forms.
const (
	tagAttr  = 0x01
	tagTuple = 0x02
	tagGroup = 0x03
	tagNode  = 0x04
)

// MaxEntries is the most entries a node may hold: its count travels as a
// u16, in the page and in a proof.
const MaxEntries = 0xFFFF

// maxLevels bounds the in-node levels: 8^6 > MaxEntries.
const maxLevels = 7

// truncate writes the leading 16 bytes of a hash into dst's backing array
// when it has room.
func truncate(dst Value, sum [sha256.Size]byte) Value {
	out := dst[:0]
	if cap(out) < size {
		out = make(Value, size)
	}
	out = out[:size]
	copy(out, sum[:])
	return out
}

// AttrDigest computes an attribute's ordered digest d_i from its column
// index and canonical value, into dst's backing array when it has room.
func (a *Accumulator) AttrDigest(dst Value, col int, value []byte) Value {
	var stack [64]byte
	return a.HashAttr(dst, append(AppendAttrHead(stack[:0], col), value...))
}

// AppendAttrHead appends the head of an attribute hash's preimage — its
// tag and column index — to dst; the canonical value follows it. A
// verifier lays each value out behind it in one scratch buffer and hashes
// that (HashAttr).
func AppendAttrHead(dst []byte, col int) []byte {
	return append(dst, tagAttr, byte(col>>8), byte(col))
}

// HashAttr computes an attribute digest from its whole preimage: its head
// (AppendAttrHead) and its canonical value.
func (a *Accumulator) HashAttr(dst Value, preimage []byte) Value {
	a.countHash()
	return truncate(dst, sha256.Sum256(preimage))
}

// TupleDigest computes a tuple's ordered digest T over its key and its
// attribute digests in column order (attrs holds them back to back), into
// dst's backing array when it has room.
func (a *Accumulator) TupleDigest(dst Value, key, attrs []byte) Value {
	var stack [256]byte
	return a.HashTuple(dst, append(AppendTupleHead(stack[:0], key), attrs...))
}

// AppendTupleHead appends the head of a tuple hash's preimage — its tag
// and key — to dst. The attribute digests follow it, in column order: a
// verifier lays a row's preimage out once and writes each attribute
// digest into its place, then hashes it whole (HashTuple).
func AppendTupleHead(dst, key []byte) []byte {
	dst = append(dst, tagTuple)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(key)))
	return append(dst, key...)
}

// HashTuple computes a tuple digest from its whole preimage: its head
// (AppendTupleHead) and its attribute digests.
func (a *Accumulator) HashTuple(dst Value, preimage []byte) Value {
	a.countHash()
	return truncate(dst, sha256.Sum256(preimage))
}

// appendNodeHead appends a node hash's preimage up to its first child.
func appendNodeHead(buf []byte, level, n int, db, table string) []byte {
	buf = append(buf, tagNode, byte(level))
	buf = binary.BigEndian.AppendUint16(buf, uint16(n))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(db)))
	buf = append(buf, db...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(table)))
	return append(buf, table...)
}

// Shape is the in-node tree over a node's n entries: sizes[0] = n,
// sizes[l] = ⌈sizes[l−1]/Arity⌉, up to the first level top whose size is
// at most Arity — the digests the node hash covers. Levels 1..top are the
// group digests a page stores, level by level.
type Shape struct {
	sizes  [maxLevels]int
	offs   [maxLevels]int // offs[l]: index of level l's first stored digest
	widths [maxLevels]int // widths[l] = Arity^l: the entries under a digest of level l
	top    int
}

// NewShape returns the shape of a node of n entries, 0 <= n <= MaxEntries.
func NewShape(n int) Shape {
	var s Shape
	s.sizes[0] = n
	for l, w := 0, 1; l < maxLevels; l, w = l+1, w*Arity {
		s.widths[l] = w
	}
	stored := 0
	for s.sizes[s.top] > Arity {
		s.top++
		s.sizes[s.top] = (s.sizes[s.top-1] + Arity - 1) / Arity
		s.offs[s.top] = stored
		stored += s.sizes[s.top]
	}
	return s
}

// Stored returns how many group digests the node's page stores.
func (s *Shape) Stored() int {
	if s.top == 0 {
		return 0
	}
	return s.offs[s.top] + s.sizes[s.top]
}

// StoredAt returns the index, among the stored group digests, of group i
// at in-node level l >= 1.
func (s *Shape) StoredAt(l, i int) int { return s.offs[l] + i }

// span returns the entries [lo, hi) under digest i of in-node level l.
func (s *Shape) span(l, i int) (lo, hi int) {
	w := s.widths[l]
	return i * w, min((i+1)*w, s.sizes[0])
}

// children returns the digests [lo, hi) of level l−1 under digest i of
// level l.
func (s *Shape) children(l, i int) (lo, hi int) {
	return i * Arity, min(i*Arity+Arity, s.sizes[l-1])
}

// StoredBytes returns the page bytes the group digests of a node of n
// entries take up.
func StoredBytes(n int) int {
	s := NewShape(n)
	return s.Stored() * size
}

// CommitNode computes the digest of a node at the given level (leaf = 1)
// over its entries in order, and its group digests into groups, which
// must hold NewShape(len(entries)).Stored() digests.
//
// When dirty is non-nil it marks the entries changed since old was
// computed for a node of oldN entries: a group none of whose entries is
// dirty is copied from old rather than rehashed. The caller marks every
// entry at or after the first position that moved. Should the in-node
// levels differ from old's, every group is rehashed.
func CommitNode[E ~[]byte](a *Accumulator, level int, db, table string, entries []E, groups, old []byte, oldN int, dirty []bool) Value {
	s, oldShape := NewShape(len(entries)), NewShape(oldN)
	if dirty != nil && (oldShape.top != s.top || len(old) != oldShape.Stored()*size || len(dirty) != len(entries)) {
		dirty = nil
	}
	// below holds the digests of the level under the one being hashed, and
	// belowDirty which of them changed.
	var below [][]byte
	belowDirty := dirty
	for _, e := range entries {
		below = append(below, e)
	}
	var buf [1 + Arity*size]byte
	for l := 1; l <= s.top; l++ {
		var next [][]byte
		var nextDirty []bool
		if dirty != nil {
			nextDirty = make([]bool, s.sizes[l])
		}
		for i := 0; i < s.sizes[l]; i++ {
			lo, hi := s.children(l, i)
			at := s.StoredAt(l, i) * size
			g := groups[at : at+size : at+size]
			changed := dirty == nil
			for j := lo; j < hi && !changed; j++ {
				changed = belowDirty[j]
			}
			if changed {
				p := append(buf[:0], tagGroup)
				for j := lo; j < hi; j++ {
					p = append(p, below[j]...)
				}
				a.countHash()
				sum := sha256.Sum256(p)
				copy(g, sum[:size])
			} else {
				o := oldShape.StoredAt(l, i) * size
				copy(g, old[o:o+size])
			}
			if nextDirty != nil {
				nextDirty[i] = changed
			}
			next = append(next, g)
		}
		below, belowDirty = next, nextDirty
	}
	var stack [512]byte
	p := appendNodeHead(stack[:0], level, len(entries), db, table)
	for _, d := range below {
		p = append(p, d...)
	}
	a.countHash()
	return truncate(nil, sha256.Sum256(p))
}

// TopOf returns the digest of a node from its stored page state: the
// node hash over the stored top-level group digests, or over the entries
// themselves when the node stores none. It hashes once.
func TopOf[E ~[]byte](a *Accumulator, level int, db, table string, entries []E, groups []byte) Value {
	s := NewShape(len(entries))
	var stack [512]byte
	p := appendNodeHead(stack[:0], level, len(entries), db, table)
	if s.top == 0 {
		for _, e := range entries {
			p = append(p, e...)
		}
	} else {
		from := s.StoredAt(s.top, 0) * size
		p = append(p, groups[from:from+s.sizes[s.top]*size]...)
	}
	a.countHash()
	return truncate(nil, sha256.Sum256(p))
}

// Runs are the positions a proof of a node recomputes, as they travel in
// a VO: RunSize bytes per run, u16 start then u16 length. A canonical
// list is sorted, every run at least one long, and no two runs overlap or
// touch — so one set of positions has exactly one spelling.
const RunSize = 4

// CheckRuns reports whether runs is a canonical run list over n entries,
// and returns how many positions it names.
func CheckRuns(runs []byte, n int) (int, error) {
	if len(runs)%RunSize != 0 {
		return 0, fmt.Errorf("digest: %d run bytes are not whole runs", len(runs))
	}
	total, end := 0, -1
	for at := 0; at < len(runs); at += RunSize {
		start := int(binary.BigEndian.Uint16(runs[at:]))
		length := int(binary.BigEndian.Uint16(runs[at+2:]))
		if length == 0 || start <= end || start+length > n {
			return 0, fmt.Errorf("digest: run [%d,+%d) is not canonical over %d entries", start, length, n)
		}
		end = start + length
		total += length
	}
	return total, nil
}

// coverage classifies the entries [lo, hi) against canonical runs.
type coverage uint8

const (
	coverNone coverage = iota
	coverPart
	coverAll
)

// runCursor classifies entry ranges against canonical runs. The ranges
// must come in left-to-right order — each lo at least the one before —
// as a traversal of the in-node tree visits them, so the cursor only
// moves forward: one step per run, however many ranges it is asked about.
type runCursor struct {
	runs       []byte // the runs not yet reached
	start, end int    // the current run
}

func (c *runCursor) cover(lo, hi int) coverage {
	for c.end <= lo {
		if len(c.runs) < RunSize {
			return coverNone
		}
		c.start = int(binary.BigEndian.Uint16(c.runs))
		c.end = c.start + int(binary.BigEndian.Uint16(c.runs[2:]))
		c.runs = c.runs[RunSize:]
	}
	switch {
	case c.start >= hi:
		return coverNone
	case c.start <= lo && c.end >= hi:
		return coverAll
	}
	return coverPart
}

// Sibling names one digest of a proof: digest I of in-node level L (0:
// an entry, otherwise a stored group digest).
type Sibling struct{ L, I int }

// Siblings returns how many digests a proof of a node of this shape
// carries when the runs name the recomputed positions: one per maximal
// in-node subtree holding no named position. The work is proportional to
// the digests it visits — the partly recomputed groups' children — not
// to n.
func (s *Shape) Siblings(runs []byte) int {
	rc := runCursor{runs: runs}
	c := 0
	for i := 0; i < s.sizes[s.top]; i++ {
		c += s.count(&rc, s.top, i)
	}
	return c
}

func (s *Shape) count(rc *runCursor, l, i int) int {
	lo, hi := s.span(l, i)
	switch rc.cover(lo, hi) {
	case coverNone:
		return 1
	case coverAll:
		return 0
	}
	c := 0
	from, to := s.children(l, i)
	for j := from; j < to; j++ {
		c += s.count(rc, l-1, j)
	}
	return c
}

// AppendSiblings appends the proof's digests, in the order they travel.
func (s *Shape) AppendSiblings(dst []Sibling, runs []byte) []Sibling {
	rc := runCursor{runs: runs}
	for i := 0; i < s.sizes[s.top]; i++ {
		dst = s.appendSibling(dst, &rc, s.top, i)
	}
	return dst
}

func (s *Shape) appendSibling(dst []Sibling, rc *runCursor, l, i int) []Sibling {
	lo, hi := s.span(l, i)
	switch rc.cover(lo, hi) {
	case coverNone:
		return append(dst, Sibling{L: l, I: i})
	case coverAll:
		return dst
	}
	from, to := s.children(l, i)
	for j := from; j < to; j++ {
		dst = s.appendSibling(dst, rc, l-1, j)
	}
	return dst
}

// errProof marks a proof whose digests do not fit its shape.
var errProof = errors.New("digest: proof does not fit the node's shape")

// EntrySource yields the digests of the positions a proof recomputes, in
// increasing position order. The digest returned need only stay valid
// until the next call.
type EntrySource interface {
	Entry(pos int) (Value, error)
}

// Recompute computes a node's digest from a proof of it, into dst's
// backing array when it has room: n entries at the given level, the
// positions runs names yielded by src, and every other digest taken in
// order from sibs — which must hold exactly NewShape(n).Siblings(runs) of
// them. The runs must be canonical (CheckRuns).
func (a *Accumulator) Recompute(dst Value, level int, db, table string, n int, runs, sibs []byte, src EntrySource) (Value, error) {
	r := recompute{a: a, s: NewShape(n), runs: runCursor{runs: runs}, sibs: sibs, src: src}
	var stack [512]byte
	p := appendNodeHead(stack[:0], level, n, db, table)
	for i := 0; i < r.s.sizes[r.s.top]; i++ {
		d, err := r.digest(r.s.top, i)
		if err != nil {
			return nil, err
		}
		p = append(p, d[:]...)
	}
	if len(r.sibs) != 0 {
		return nil, fmt.Errorf("%w: %d digests left over", errProof, len(r.sibs)/size)
	}
	a.countHash()
	return truncate(dst, sha256.Sum256(p)), nil
}

type recompute struct {
	a    *Accumulator
	s    Shape
	runs runCursor
	sibs []byte
	src  EntrySource
}

// digest returns in-node digest i of level l. Digests travel by value, so
// a group's preimage stays on the stack of the call hashing it.
func (r *recompute) digest(l, i int) (out [size]byte, err error) {
	lo, hi := r.s.span(l, i)
	c := r.runs.cover(lo, hi)
	switch {
	case c == coverNone:
		if len(r.sibs) < size {
			return out, fmt.Errorf("%w: too few digests", errProof)
		}
		copy(out[:], r.sibs)
		r.sibs = r.sibs[size:]
		return out, nil
	case l == 0:
		d, err := r.src.Entry(lo)
		if err != nil {
			return out, err
		}
		if len(d) != size {
			return out, fmt.Errorf("%w: a %d-byte entry digest", errProof, len(d))
		}
		copy(out[:], d)
		return out, nil
	}
	var buf [1 + Arity*size]byte
	buf[0] = tagGroup
	k := 1
	from, to := r.s.children(l, i)
	for j := from; j < to; j++ {
		d, err := r.digest(l-1, j)
		if err != nil {
			return out, err
		}
		k += copy(buf[k:], d[:])
	}
	r.a.countHash()
	sum := sha256.Sum256(buf[:k])
	copy(out[:], sum[:])
	return out, nil
}
