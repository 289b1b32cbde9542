package costmodel

import "edgeauth/internal/digest"

// Ordered commitments: the cost model of the deployed VB-tree.
//
// A node commits to its ordered entries
// through an in-node tree of arity A = digest.Arity (package digest), and
// a VO carries the envelope from the root down: per envelope node its
// entry count, the runs of positions the answer recomputes, and one
// digest per maximal in-node subtree holding none of them. Formula (8)'s
// F − 1 digests per boundary node become at most (A − 1) per in-node
// level; a point read through a node of n entries ships
// Σ_l (group size − 1) ≤ (A − 1)·⌈log_A n⌉ of them.
//
// The paper's formulas keep their shape in Params for Figures 8–12; what
// follows prices an envelope whose nodes are given — the entry counts and
// the recomputed runs, which the tree's shape and the answer fix — and
// is tied to the wire and the counters by sig.TestVOBytesMatchFormula9,
// verify.TestOrderedVerifyHashesMatchFormula10 and
// vbtree.TestInsertCostIsFormula11.

// OrderedNode is one envelope node of an ordered VO: its entry count and
// the runs [start, end) of the positions the answer recomputes.
type OrderedNode struct {
	N    int
	Runs [][2]int
}

// coverage of the entries [lo, hi) by the runs.
type coverage int

const (
	none coverage = iota
	part
	all
)

func (nd OrderedNode) cover(lo, hi int) coverage {
	covered := 0
	for _, r := range nd.Runs {
		covered += max(0, min(hi, r[1])-max(lo, r[0]))
	}
	switch covered {
	case 0:
		return none
	case hi - lo:
		return all
	}
	return part
}

// inNodeLevels returns the in-node level sizes over n entries: n, then
// ⌈·/A⌉ until at most A remain (the digests the node hash covers).
func inNodeLevels(n int) []int {
	sizes := []int{n}
	for sizes[len(sizes)-1] > digest.Arity {
		sizes = append(sizes, (sizes[len(sizes)-1]+digest.Arity-1)/digest.Arity)
	}
	return sizes
}

// eachDigest calls fn for every in-node digest i of level l with the
// coverage of its entries and of its parent's (all for the top level,
// whose parent is the node hash).
func (nd OrderedNode) eachDigest(fn func(l int, c, parent coverage)) {
	sizes := inNodeLevels(nd.N)
	top := len(sizes) - 1
	w := 1
	for l := 0; l <= top; l++ {
		for i := 0; i < sizes[l]; i++ {
			c := nd.cover(i*w, min((i+1)*w, nd.N))
			parent := all
			if l < top {
				pw := w * digest.Arity
				p := i / digest.Arity
				parent = nd.cover(p*pw, min((p+1)*pw, nd.N))
				if parent == all {
					parent = part // reached either way: the parent is hashed
				}
			}
			fn(l, c, parent)
		}
		w *= digest.Arity
	}
}

// OrderedSiblings is the D_S count of one node's in-node proof: a digest
// for each in-node subtree holding no recomputed position whose parent
// holds one (or is the node itself).
func OrderedSiblings(nd OrderedNode) int {
	n := 0
	nd.eachDigest(func(l int, c, parent coverage) {
		if c == none && parent != none {
			n++
		}
	})
	return n
}

// OrderedDSCount is |D_S| of an ordered VO: the siblings of every
// envelope node.
func OrderedDSCount(env []OrderedNode) int {
	n := 0
	for _, nd := range env {
		n += OrderedSiblings(nd)
	}
	return n
}

// OrderedVOBytes is formula (9)'s VO term for an ordered VO with dp D_P
// digests and a root signature of rootSig bytes: (|D_P| + |D_S| + 1)·D
// digest bytes, 4 bytes per node record and 4 per run, the root
// signature, and the 31 bytes of header every VO carries.
func (p Params) OrderedVOBytes(env []OrderedNode, dp, rootSig int) int {
	records := 0
	for _, nd := range env {
		records += 4 + 4*len(nd.Runs)
	}
	return p.VODigestBytes(dp, OrderedDSCount(env)) + records + rootSig + voHeader
}

// voHeader is what a VO carries beside its digests, node records and root
// signature: key version, timestamp, level, two lengths, width and two
// counts (vo.VO.WireSize).
const voHeader = 4 + 8 + 1 + 4 + 4 + 2 + 4 + 4

// OrderedVerifyHashes is formula (10)'s hash term under ordered
// commitments, for qr result rows of Q_C returned columns: an attribute
// hash per returned value, a tuple hash per row, and per envelope node
// its node hash and one hash per group digest holding a recomputed
// position. No combines and, beside the root's, no signature.
func (p Params) OrderedVerifyHashes(qr int, env []OrderedNode) int {
	n := qr*p.QC + qr
	for _, nd := range env {
		n++
		nd.eachDigest(func(l int, c, _ coverage) {
			if l > 0 && c != none {
				n++
			}
		})
	}
	return n
}

// InsertStep is one node on an insert's root-to-leaf path: its entry
// count after the insert, the position that changed, and whether an
// entry was inserted there (the leaf) rather than rewritten (a node above
// it, whose child's digest changed).
type InsertStep struct {
	N, Pos   int
	Inserted bool
}

// OrderedInsertHashes restates formula (11) for an ordered tree and an
// insert that splits nothing: N_C attribute hashes and a tuple hash, then
// at each node of the path its node hash and a hash for each group
// digest over an entry that changed or moved — in the leaf every group
// from the insertion point on (every group, if the in-node levels grew),
// above it the one group per in-node level over the changed child.
func (p Params) OrderedInsertHashes(path []InsertStep) int {
	n := p.NC + 1
	for _, s := range path {
		sizes := inNodeLevels(s.N)
		n++
		if s.Inserted && len(inNodeLevels(s.N-1)) != len(sizes) {
			for _, sz := range sizes[1:] {
				n += sz
			}
			continue
		}
		w := 1
		for l := 1; l < len(sizes); l++ {
			w *= digest.Arity
			if s.Inserted {
				n += sizes[l] - s.Pos/w
			} else {
				n++
			}
		}
	}
	return n
}
