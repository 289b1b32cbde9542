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
//	column:    C   = H(0x05 ‖ c_1 ‖ … ‖ c_k)
//	tuple:     T   = H(0x02 ‖ u16 len(key) ‖ key ‖ c_1 ‖ … ‖ c_k)
//	group:     G   = H(0x03 ‖ c_1 ‖ … ‖ c_k)
//	node:      D_N = H(0x04 ‖ u8 level ‖ u16 n ‖ u16 len(db) ‖ db ‖ u16 len(table) ‖ table ‖ c_1 ‖ … ‖ c_k)
//
// An attribute's preimage is one SHA-256 block for values up to 52 bytes;
// the database and table are bound once per node, the key once per tuple.
//
// # The column tree
//
// A tuple commits to its non-key columns through a Merkle tree of arity
// Arity over their attribute digests, in schema order (ColumnShape):
// T covers the tree's top digests, C its column group digests. The key
// column has no attribute digest, because T binds the key itself. The
// heap record stores the attribute and column group digests, so a
// projection copies the proof of the columns it leaves out and never
// hashes at query time: one digest per maximal column subtree holding no
// returned column, not one per omitted column.
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
// in-node level, not n − 1. A proof of a tuple's columns is the same
// construction over the column tree.

// CommitmentVersion names the commitment the forms above make. A store
// written under another one holds digests this code does not compute:
// version 6 hashed a tuple over the digests of all its columns, the
// key's included, in one flat list; version 7 hashes it over the column
// tree; version 8 builds the in-node tree at arity 3 where 7 built it at
// 8, so its pages hold other group digests and its nodes other digests.
// Heap records carry it (vo.StoredTuple).
const CommitmentVersion = 8

// Arity is the fan-out of both trees — a node's in-node tree and a
// tuple's column tree — chosen by measurement: the widest group whose
// preimage, a tag and Arity digests (49 bytes at 3), is one SHA-256
// block. A point read's proof carries at most Arity − 1 digests per
// in-node level. Over the benchmark's shard (8,192 rows of
// workload.DefaultSpec on 4 KB pages, a 1024-bit root signature), with
// both trees at each arity, the VO of a point read (row 1,960) and of a
// 256-row, 3-of-10 range (rows 1,000–1,255), the hashes verifying that
// range takes, and the entries a 4 KB leaf and internal node hold beside
// their group digests were:
//
//	arity   point VO    range VO       range hashes   4 KB leaf / children
//	8       671 bytes   29,271 bytes   1,069          112 / 119
//	4       511 bytes   16,919 bytes   1,123          103 / 109
//	3       479 bytes   12,791 bytes   1,169           96 / 102
//	2       439 bytes   12,671 bytes   1,807           80 / 84
//
// Arity 4 and above take a second SHA-256 block a group, and the column
// tree then ships 4 or more digests a row of the range where 3 ships 3 (a
// flat list over the nine non-key columns ships 7). Arity 2 ships the
// fewest, but a page stores twice the group digests it stores at 3 and
// the range hashes half as often again.
const Arity = 3

// Domain tags of the five ordered-hash forms.
const (
	tagAttr        = 0x01
	tagTuple       = 0x02
	tagGroup       = 0x03
	tagNode        = 0x04
	tagColumnGroup = 0x05
)

// MaxEntries is the most entries a node may hold: its count travels as a
// u16, in the page and in a proof.
const MaxEntries = 0xFFFF

// maxLevels bounds the levels of a tree over at most MaxEntries entries
// (a node's) or columns (a tuple's): 3^11 exceeds it.
const maxLevels = 11

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

// TupleDigest computes a tuple's ordered digest T over its key and the
// attribute digests of its non-key columns in schema order (attrs holds
// them back to back), into dst's backing array when it has room. It
// writes the column tree's group digests into groups, which must hold
// ColumnShape(len(attrs)/Size).Stored() digests.
func (a *Accumulator) TupleDigest(dst Value, key, attrs, groups []byte) Value {
	s := ColumnShape(len(attrs) / size)
	below := make([][]byte, s.sizes[0])
	for i := range below {
		below[i] = attrs[i*size : (i+1)*size]
	}
	var stack [256]byte
	p := appendTupleHead(stack[:0], key)
	for _, d := range a.commitGroups(&s, nil, below, groups, nil, nil) {
		p = append(p, d...)
	}
	a.countHash()
	return truncate(dst, sha256.Sum256(p))
}

// ColumnDigests returns how many digests the heap record of a tuple of n
// values stores: an attribute digest for each of its n − 1 non-key
// columns and the group digests of the column tree over them.
func ColumnDigests(n int) int {
	if n < 1 {
		return 0
	}
	return n - 1 + stored(n-1)
}

// appendTupleHead appends the head of a tuple hash's preimage — its tag
// and key — to dst. The top digests of the column tree follow it.
func appendTupleHead(dst, key []byte) []byte {
	dst = append(dst, tagTuple)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(key)))
	return append(dst, key...)
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

// Shape is a Merkle tree of arity Arity over n entries — a node's
// (NewShape) or a tuple's columns (ColumnShape): sizes[0] = n,
// sizes[l] = ⌈sizes[l−1]/Arity⌉, up to the first level top whose size is
// at most Arity — the digests the node or tuple hash covers. Levels
// 1..top are the group digests a page or a heap record stores, level by
// level.
type Shape struct {
	tag    byte // the domain tag of its group hashes
	sizes  [maxLevels]int
	offs   [maxLevels]int // offs[l]: index of level l's first stored digest
	widths [maxLevels]int // widths[l] = Arity^l: the entries under a digest of level l
	top    int
}

// NewShape returns the shape of the in-node tree of a node of n entries,
// 0 <= n <= MaxEntries.
func NewShape(n int) Shape { return newShape(tagGroup, n) }

// ColumnShape returns the shape of the column tree of a tuple of n
// non-key columns, 0 <= n < MaxEntries.
func ColumnShape(n int) Shape { return newShape(tagColumnGroup, n) }

func newShape(tag byte, n int) Shape {
	s := Shape{tag: tag}
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

// stored returns how many group digests a tree over n entries stores —
// NewShape(n).Stored() — without building its shape. An answer counts
// the digests of every heap record it reads (ColumnDigests): on the
// benchmark's read.range (2 vCPUs), building a Shape for each took the
// edge's time a query from about 160 µs to 188.
func stored(n int) int {
	c := 0
	for n > Arity {
		n = (n + Arity - 1) / Arity
		c += n
	}
	return c
}

// Stored returns how many group digests the node's page, or the tuple's
// heap record, stores.
func (s *Shape) Stored() int {
	if s.top == 0 {
		return 0
	}
	return s.offs[s.top] + s.sizes[s.top]
}

// StoredAt returns the index, among the stored group digests, of group i
// at level l >= 1.
func (s *Shape) StoredAt(l, i int) int { return s.offs[l] + i }

// span returns the entries [lo, hi) under digest i of level l.
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
func StoredBytes(n int) int { return stored(n) * size }

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
	below := make([][]byte, len(entries))
	for i, e := range entries {
		below[i] = e
	}
	var stack [512]byte
	p := appendNodeHead(stack[:0], level, len(entries), db, table)
	for _, d := range a.commitGroups(&s, &oldShape, below, groups, old, dirty) {
		p = append(p, d...)
	}
	a.countHash()
	return truncate(nil, sha256.Sum256(p))
}

// commitGroups hashes the group digests of s over the entries below into
// groups, level by level, and returns the top level's digests. With
// dirty non-nil, a group none of whose entries is dirty is copied from
// old, stored in the shape oldShape (see CommitNode).
func (a *Accumulator) commitGroups(s, oldShape *Shape, below [][]byte, groups, old []byte, dirty []bool) [][]byte {
	// belowDirty marks which digests of the level under the one being
	// hashed changed.
	belowDirty := dirty
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
				p := append(buf[:0], s.tag)
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
	return below
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

// Runs are the positions a proof recomputes, as they travel in a VO: RunSize
// bytes per run, u16 start then u16 length. A canonical list is sorted,
// every run at least one long, and no two runs overlap or touch — so one
// set of positions has exactly one spelling.
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

// AppendRun adds position i to the canonical runs of which runs[mark:]
// holds the last ones, i above every position they name: it lengthens
// the last run if i follows it, and starts a run otherwise.
func AppendRun(runs []byte, mark, i int) []byte {
	if n := len(runs); n > mark {
		last := runs[n-RunSize:]
		start, l := binary.BigEndian.Uint16(last), binary.BigEndian.Uint16(last[2:])
		if int(start)+int(l) == i {
			binary.BigEndian.PutUint16(last[2:], l+1)
			return runs
		}
	}
	return binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint16(runs, uint16(i)), 1)
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
// as a traversal of the tree visits them, so the cursor only moves
// forward: one step per run, however many ranges it is asked about.
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

// Sibling names one digest of a proof: digest I of level L (0: an entry,
// otherwise a stored group digest).
type Sibling struct{ L, I int }

// Siblings returns how many digests a proof over this shape carries when
// the runs name the recomputed positions: one per maximal subtree holding
// no named position. The work is proportional to the digests it visits —
// the partly recomputed groups' children — not to n.
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
var errProof = errors.New("digest: proof does not fit the tree's shape")

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
	s := NewShape(n)
	var stack [512]byte
	p, err := a.appendTop(appendNodeHead(stack[:0], level, n, db, table), &s, runs, sibs, src)
	if err != nil {
		return nil, err
	}
	a.countHash()
	return truncate(dst, sha256.Sum256(p)), nil
}

// RecomputeTuple computes a tuple's digest from a proof of its columns,
// into dst's backing array when it has room: its key, the attribute
// digests of the columns runs names — positions of s, a ColumnShape —
// yielded by src, and every other digest of the column tree taken in
// order from sibs, which must hold exactly s.Siblings(runs) of them. The
// runs must be canonical (CheckRuns).
func (a *Accumulator) RecomputeTuple(dst Value, key []byte, s *Shape, runs, sibs []byte, src EntrySource) (Value, error) {
	var stack [256]byte
	p, err := a.appendTop(appendTupleHead(stack[:0], key), s, runs, sibs, src)
	if err != nil {
		return nil, err
	}
	a.countHash()
	return truncate(dst, sha256.Sum256(p)), nil
}

// appendTop appends to p the top-level digests of s that a proof
// recomputes.
func (a *Accumulator) appendTop(p []byte, s *Shape, runs, sibs []byte, src EntrySource) ([]byte, error) {
	r := recompute{a: a, runs: runCursor{runs: runs}, sibs: sibs, src: src}
	for i := 0; i < s.sizes[s.top]; i++ {
		d, err := r.digest(s, s.top, i)
		if err != nil {
			return nil, err
		}
		p = append(p, d[:]...)
	}
	if len(r.sibs) != 0 {
		return nil, fmt.Errorf("%w: %d digests left over", errProof, len(r.sibs)/size)
	}
	return p, nil
}

// recompute is one proof's progress. The shape travels beside it, not in
// it: whatever the EntrySource is handed may escape, and the shape need
// not.
type recompute struct {
	a    *Accumulator
	runs runCursor
	sibs []byte
	src  EntrySource
}

// digest returns digest i of level l of s. Digests travel by value, so a
// group's preimage stays on the stack of the call hashing it.
func (r *recompute) digest(s *Shape, l, i int) (out [size]byte, err error) {
	lo, hi := s.span(l, i)
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
	buf[0] = s.tag
	k := 1
	from, to := s.children(l, i)
	for j := from; j < to; j++ {
		d, err := r.digest(s, l-1, j)
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
