package costmodel

import (
	"slices"

	"edgeauth/internal/digest"
)

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
// A tuple commits to its N_C − 1 non-key columns the same way, through
// a column tree of the same arity, and a row of a projection
// ships one digest per maximal column subtree holding no returned
// column: formula (9)'s |D_P| = Q_R·(N_C − Q_C) becomes Q_R times the
// projection's siblings (Projection.Siblings) — 3 for the benchmark's
// 3-of-10 projection, never more than N_C − Q_C, 0 for a full one.
//
// The paper's formulas keep their shape in Params for Figures 8–12; what
// follows prices an envelope whose nodes are given — the entry counts and
// the recomputed runs, which the tree's shape and the answer fix — and a
// projection whose columns are, and is tied to the wire and the counters
// by sig.TestVOBytesMatchFormula9, verify.TestEveryProjectionShipsItsColumnSiblings
// and vbtree.TestInsertCostIsFormula11.

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

// Projection is a projection as a tuple's column tree sees it: N non-key
// columns in schema order, and the runs [start, end) of those the answer
// returns.
type Projection struct {
	N    int
	Runs [][2]int
}

// ProjectionOf returns the projection returning the schema columns cols
// of a table of nc columns whose key column is key.
func ProjectionOf(nc, key int, cols []int) Projection {
	pr := Projection{N: nc - 1}
	for leaf, ci := 0, 0; ci < nc; ci++ {
		if ci == key {
			continue
		}
		if slices.Contains(cols, ci) {
			if n := len(pr.Runs); n > 0 && pr.Runs[n-1][1] == leaf {
				pr.Runs[n-1][1]++
			} else {
				pr.Runs = append(pr.Runs, [2]int{leaf, leaf + 1})
			}
		}
		leaf++
	}
	return pr
}

// Siblings is formula (9)'s D_P term per row for the deployed tree: the
// digests of a row's column proof, one for each column subtree holding
// no returned column whose parent holds one.
func (pr Projection) Siblings() int { return pr.tree().siblings() }

// Hashes is what recomputing a row's tuple digest costs: an attribute
// hash per returned non-key value, a hash per column group holding one,
// and the tuple hash.
func (pr Projection) Hashes() int {
	n := 1
	for _, r := range pr.Runs {
		n += r[1] - r[0]
	}
	return n + pr.tree().groupsHashed()
}

func (pr Projection) tree() tree { return tree{n: pr.N, runs: pr.Runs} }

// tree is a Merkle tree of arity digest.Arity over n entries — a node's
// or a tuple's columns — and the runs [start, end) of the entries a proof
// recomputes.
type tree struct {
	n    int
	runs [][2]int
}

func (nd OrderedNode) tree() tree { return tree{n: nd.N, runs: nd.Runs} }

func (tr tree) cover(lo, hi int) coverage {
	covered := 0
	for _, r := range tr.runs {
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

// levels returns the level sizes of a tree over n entries: n, then
// ⌈·/A⌉ until at most A remain (the digests the node or tuple hash
// covers).
func levels(n int) []int {
	const a = digest.Arity
	sizes := []int{n}
	for sizes[len(sizes)-1] > a {
		sizes = append(sizes, (sizes[len(sizes)-1]+a-1)/a)
	}
	return sizes
}

// eachDigest calls fn for every digest i of level l with the coverage of
// its entries and of its parent's (all for the top level, whose parent is
// the node or tuple hash).
func (tr tree) eachDigest(fn func(l int, c, parent coverage)) {
	sizes := levels(tr.n)
	top := len(sizes) - 1
	w := 1
	for l := 0; l <= top; l++ {
		for i := 0; i < sizes[l]; i++ {
			c := tr.cover(i*w, min((i+1)*w, tr.n))
			parent := all
			if l < top {
				pw := w * digest.Arity
				p := i / digest.Arity
				parent = tr.cover(p*pw, min((p+1)*pw, tr.n))
				if parent == all {
					parent = part // reached either way: the parent is hashed
				}
			}
			fn(l, c, parent)
		}
		w *= digest.Arity
	}
}

// siblings counts a proof's digests: one for each subtree holding no
// recomputed position whose parent holds one (or is the node or tuple
// hash itself).
func (tr tree) siblings() int {
	n := 0
	tr.eachDigest(func(l int, c, parent coverage) {
		if c == none && parent != none {
			n++
		}
	})
	return n
}

// groupsHashed counts the group digests a proof recomputes: those holding
// a recomputed position.
func (tr tree) groupsHashed() int {
	n := 0
	tr.eachDigest(func(l int, c, _ coverage) {
		if l > 0 && c != none {
			n++
		}
	})
	return n
}

// OrderedSiblings is the D_S count of one node's in-node proof.
func OrderedSiblings(nd OrderedNode) int { return nd.tree().siblings() }

// OrderedDSCount is |D_S| of an ordered VO: the siblings of every
// envelope node.
func OrderedDSCount(env []OrderedNode) int {
	n := 0
	for _, nd := range env {
		n += OrderedSiblings(nd)
	}
	return n
}

// OrderedDPCount is |D_P| of an ordered VO: each of its qr rows of the
// projection pr carries its column proof.
func OrderedDPCount(qr int, pr Projection) int { return qr * pr.Siblings() }

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
// commitments, for qr result rows of the projection pr: per row an
// attribute hash per returned non-key value, a hash per column group
// holding one, and the tuple hash (Projection.Hashes); per envelope node
// its node hash and one hash per group digest holding a recomputed
// position. No combines and, beside the root's, no signature.
func OrderedVerifyHashes(qr int, pr Projection, env []OrderedNode) int {
	n := qr * pr.Hashes()
	for _, nd := range env {
		n += 1 + nd.tree().groupsHashed()
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
// insert that splits nothing: N_C − 1 attribute hashes (the key has
// none), a hash per column group and the tuple hash, then
// at each node of the path its node hash and a hash for each group
// digest over an entry that changed or moved — in the leaf every group
// from the insertion point on (every group, if the in-node levels grew),
// above it the one group per in-node level over the changed child.
func (p Params) OrderedInsertHashes(path []InsertStep) int {
	// The tuple costs what a row returning every column does to verify.
	n := Projection{N: p.NC - 1, Runs: [][2]int{{0, p.NC - 1}}}.Hashes()
	for _, s := range path {
		sizes := levels(s.N)
		n++
		if s.Inserted && len(levels(s.N-1)) != len(sizes) {
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
