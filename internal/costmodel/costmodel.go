// Package costmodel implements the analytical evaluation of the paper's
// §4: the parameter set of Table 1 and the closed-form cost formulas
// (6)–(12) plus the Naive formulas of the Appendix. Every figure in the
// paper (8–13) is a plot of these formulas; the generators here reproduce
// each curve at the paper's parameter defaults, while the benchmark
// harness compares them against measurements of the real implementation.
//
// Where the published formulas are ambiguous (the PDF's equation
// typesetting is partially garbled), the reconstruction below follows the
// prose: VO digests comprise the top-node digest, at most (F−1) digests in
// each of the top node and the leftmost/rightmost node per subtree level,
// and one digest per filtered attribute; client computation is one hash
// per returned attribute value, one signature recovery per VO digest, and
// one combine per digest folded into the final product.
package costmodel

import (
	"fmt"
	"math"
)

// Params is Table 1 of the paper.
type Params struct {
	// D is the length of a signed digest in bytes (|D|).
	D int
	// K is the search-key length in bytes (|K|).
	K int
	// P is the node-pointer length in bytes (|P|).
	P int
	// B is the block/node size in bytes (|B|).
	B int
	// NR is the number of tuples in the table (N_R).
	NR int
	// NC is the number of attributes per tuple (N_C).
	NC int
	// QC is the number of attributes in the query result (Q_C).
	QC int
	// AttrSize is the size of each attribute value in bytes (|A_i|,
	// uniform; the paper fixes 200-byte tuples with 20-byte attributes).
	AttrSize int
	// CostH is the cost of hashing one attribute (Cost_h), the unit of
	// Figures 12–13.
	CostH float64
	// CostK is the cost of combining two digests (Cost_k).
	CostK float64
	// X is Cost_s / Cost_h, the signature-recovery-to-hash cost ratio
	// (the paper cites ~100 for verification; Figure 12 sweeps 5/10/100).
	X float64
}

// Default returns Table 1's default values.
func Default() Params {
	return Params{
		D:        16,
		K:        16,
		P:        4,
		B:        4096,
		NR:       1_000_000,
		NC:       10,
		QC:       10,
		AttrSize: 20,
		CostH:    1,
		CostK:    1,
		X:        10,
	}
}

// Validate checks for nonsensical parameters.
func (p Params) Validate() error {
	switch {
	case p.D <= 0 || p.K <= 0 || p.P <= 0 || p.B <= 0:
		return fmt.Errorf("costmodel: sizes must be positive: %+v", p)
	case p.NR <= 0 || p.NC <= 0:
		return fmt.Errorf("costmodel: table dimensions must be positive")
	case p.QC < 0 || p.QC > p.NC:
		return fmt.Errorf("costmodel: QC=%d out of [0,%d]", p.QC, p.NC)
	case p.B < p.K+p.P+p.D:
		return fmt.Errorf("costmodel: block size %d too small", p.B)
	}
	return nil
}

// CostS returns the signature-recovery cost Cost_s = X · Cost_h.
func (p Params) CostS() float64 { return p.X * p.CostH }

// TupleSize returns the tuple width N_C · |A|.
func (p Params) TupleSize() int { return p.NC * p.AttrSize }

// BTreeFanOut is the classic B+-tree fan-out for the node size: each child
// beyond the first costs one key and one pointer.
func (p Params) BTreeFanOut() int {
	f := 1 + (p.B-p.P)/(p.K+p.P)
	if f < 2 {
		f = 2
	}
	return f
}

// VBTreeFanOut is formula (6): every child entry additionally carries a
// signed digest of |D| bytes, shrinking the fan-out.
func (p Params) VBTreeFanOut() int {
	f := 1 + (p.B-p.P-p.D)/(p.K+p.P+p.D)
	if f < 2 {
		f = 2
	}
	return f
}

// heightFor returns the height of a fully packed tree with the given
// fan-out over NR entries (formula (7)); leaves count as one level.
func heightFor(fanOut, nr int) int {
	if nr <= 1 {
		return 1
	}
	h := int(math.Ceil(math.Log(float64(nr)) / math.Log(float64(fanOut))))
	if h < 1 {
		h = 1
	}
	return h
}

// BTreeHeight is the height of the plain B+-tree.
func (p Params) BTreeHeight() int { return heightFor(p.BTreeFanOut(), p.NR) }

// VBTreeHeight is formula (7) for the VB-tree.
func (p Params) VBTreeHeight() int { return heightFor(p.VBTreeFanOut(), p.NR) }

// EnvelopeHeight is formula (8): the height of the enveloping subtree of a
// contiguous result of qr tuples in a fully packed VB-tree.
func (p Params) EnvelopeHeight(qr int) int {
	if qr <= 1 {
		return 1
	}
	h := heightFor(p.VBTreeFanOut(), qr)
	max := p.VBTreeHeight()
	if h > max {
		h = max
	}
	return h
}

// DSCount bounds |D_S| for a contiguous result of qr tuples: at most
// (F−1) digests in the top node plus the leftmost and rightmost nodes at
// each level below the top (paper §4.2).
func (p Params) DSCount(qr int) int {
	if qr <= 0 {
		return 0
	}
	qh := p.EnvelopeHeight(qr)
	boundaryNodes := 1 + 2*(qh-1)
	return (p.VBTreeFanOut() - 1) * boundaryNodes
}

// DPCount is |D_P| = Q_R · (N_C − Q_C).
func (p Params) DPCount(qr int) int { return qr * (p.NC - p.QC) }

// ResultBytes is the raw result payload: Q_R returned tuples of Q_C
// attributes each.
func (p Params) ResultBytes(qr int) int { return qr * p.QC * p.AttrSize }

// VODigestBytes is formula (9)'s digest term for a VO of dp D_P and ds
// D_S digests: those and the top-node digest, |D| bytes each. A VO on the
// wire carries exactly these digest bytes (vo.VO.WireSize).
func (p Params) VODigestBytes(dp, ds int) int { return (dp + ds + 1) * p.D }

// CommVB is formula (9): result bytes + |D_P| digests + |D_S| digests +
// the top-node digest.
func (p Params) CommVB(qr int) int {
	return p.ResultBytes(qr) + p.VODigestBytes(p.DPCount(qr), p.DSCount(qr))
}

// CommNaive is the Appendix communication formula: result bytes + one
// signed tuple digest per result tuple + one signed digest per filtered
// attribute.
func (p Params) CommNaive(qr int) int {
	return p.ResultBytes(qr) + qr*p.D + p.DPCount(qr)*p.D
}

// CompVB is formula (10): hashes for returned attribute values, one
// recovery per VO digest, and one combine per digest folded into the
// product.
func (p Params) CompVB(qr int) float64 {
	hashes := float64(qr*p.QC) * p.CostH
	recoveries := float64(p.DPCount(qr)+p.DSCount(qr)+1) * p.CostS()
	combines := float64(qr*p.NC+p.DSCount(qr)) * p.CostK
	return hashes + recoveries + combines
}

// CompNaive is the Appendix computation formula: hashes for returned
// values, a recovery per filtered attribute, a recovery per result tuple,
// and a combine per attribute.
func (p Params) CompNaive(qr int) float64 {
	hashes := float64(qr*p.QC) * p.CostH
	recoveries := float64(p.DPCount(qr)+qr) * p.CostS()
	combines := float64(qr*p.NC) * p.CostK
	return hashes + recoveries + combines
}

// InsertCost is formula (11): digest the N_C attributes, combine them into
// the tuple digest, then fold the tuple digest into each node on the
// root-to-leaf path.
func (p Params) InsertCost() float64 {
	return float64(p.NC)*p.CostH + float64(p.NC)*p.CostK + float64(p.VBTreeHeight())*p.CostK
}

// DeleteCost is formula (12) for deleting qr contiguous tuples: the nodes
// on the top/left/right boundary of the enveloping subtree recompute their
// digests from up to (F−1) remaining entries, and each node from the
// subtree's top to the root recombines up to F child digests.
func (p Params) DeleteCost(qr int) float64 {
	if qr <= 0 {
		return 0
	}
	f := p.VBTreeFanOut()
	qh := p.EnvelopeHeight(qr)
	h := p.VBTreeHeight()
	boundary := float64(2*qh+1) * float64(f-1) * p.CostK
	upper := float64(h-qh) * float64(f) * p.CostK
	return boundary + upper
}

// The signature ledger of the central server. A signature exists so that
// what is shipped can be checked (§3), so the central signs what it ships,
// when a replica is first shipped it, not what it commits: a commit signs
// nothing, and a new map version and each new shard root are signed
// once, by the first pull that ships them.

// PullSignOps is what the first replica pull of a new map version signs:
// the map, each shard root the pull ships that no replica was shipped
// before, and one signature per delta body — a body is signed for each
// puller, so a second puller of the same versions pays only its bodies.
// A snapshot carries no signature of its own, only its root's.
func PullSignOps(roots, bodies int) int {
	return 1 + roots + bodies
}

// ReshardCost is the cost of one online partition transition — the
// dynamic-resharding extension (the paper's trees are static). A
// transition rebuilds only the carved shard(s) and replaces exactly the
// new roots plus the shard map, never the whole table, so the cost is a
// constant signature component plus a page-copy and re-digest component
// linear in the tuples that change shards. The transition itself signs
// none of the constant component: the new roots and map are final at
// its barrier, and the first pull that ships them signs them —
// PullSignOps(RootsResigned, 0), a replica taking a shard it
// never held as a snapshot.
type ReshardCost struct {
	// RootsResigned is the number of new shard roots, one per child: 2
	// for a split, 1 for a merge.
	RootsResigned int
	// PagesMoved is the modeled page-write floor for building the
	// carved stores: perfectly packed tuple+leaf bytes plus the internal
	// levels' geometric overhead. The implementation's observed count
	// sits above this floor by its slotted-page and encoding overhead,
	// but scales linearly with it (pinned by the reshard cost test
	// against live server stats).
	PagesMoved int
	// Comp is the hash/combine work re-digesting the carved tuples into
	// the new tree(s), in Cost_h units — the CPU a transition pays
	// beyond its constant signatures.
	Comp float64
}

// reshardBuild models carving one new shard over n tuples: the pages
// written and the digest recomputation.
func (p Params) reshardBuild(n int) (pages int, comp float64) {
	if n <= 0 {
		return 0, 0
	}
	// Each tuple lands once in the new store: its payload plus a leaf
	// entry (key, pointer, digest). Internal levels repeat (key,
	// pointer, digest) entries at a geometric 1/(F−1) of the leaf bytes.
	perTuple := p.TupleSize() + p.K + p.P + p.D
	leafBytes := n * perTuple
	f := p.VBTreeFanOut()
	internalBytes := leafBytes / (f - 1)
	pages = (leafBytes+internalBytes+p.B-1)/p.B + 1 // +1: store header page
	// Re-digesting follows the insert formula (11) per carved tuple:
	// hash N_C attributes, combine into the tuple digest, fold one
	// combine per level of the (smaller) carved tree.
	comp = float64(n) * (float64(p.NC)*p.CostH + float64(p.NC)*p.CostK + float64(heightFor(f, n))*p.CostK)
	return pages, comp
}

// TransitionCost models a transition whose children carry the given
// tuple counts: a split of a shard into nLeft and nRight tuples is
// TransitionCost(nLeft, nRight), a merge of two adjacent shards
// TransitionCost(nLeft+nRight). Every child is rebuilt and has a new
// root.
func (p Params) TransitionCost(children ...int) ReshardCost {
	c := ReshardCost{RootsResigned: len(children)}
	for _, n := range children {
		pg, comp := p.reshardBuild(n)
		c.PagesMoved += pg
		c.Comp += comp
	}
	return c
}

// BarrierComp models the in-lock stall of an incremental transition's
// catch-up barrier: replaying `tail` buffered updates into the children,
// each one insert's digest work (formula (11)). The transition's
// signatures are not in it — they are made when first shipped — and
// neither is the build — O(shard) — which runs outside the lock: the
// stall is O(tail), with the bound on `tail` set by the server's catch-up
// rounds (central's DefaultReshardTailBound). Observed counterpart: the
// ReshardTailReplayed stat is the realized `tail`,
// ReshardBarrierStallMs the realized wall time.
func (p Params) BarrierComp(tail int) float64 {
	if tail < 0 {
		tail = 0
	}
	return float64(tail) * p.InsertCost()
}

// QRForSelectivity converts a selectivity percentage into a result size.
func (p Params) QRForSelectivity(pct float64) int {
	qr := int(math.Round(float64(p.NR) * pct / 100))
	if qr < 0 {
		qr = 0
	}
	if qr > p.NR {
		qr = p.NR
	}
	return qr
}
