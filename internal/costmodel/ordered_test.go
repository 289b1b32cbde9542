package costmodel

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"edgeauth/internal/digest"
)

// TestOrderedSiblingsMatchTheProofs: the model's count of a node's proof
// digests — a level-by-level scan of which in-node subtrees hold a
// recomputed position — equals what the proofs the edge writes and the
// verifier reads carry (digest.Shape.Siblings, a descent that visits only
// the partly recomputed groups), over random node sizes and runs.
func TestOrderedSiblingsMatchTheProofs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(600)
		if i%50 == 0 {
			n = digest.MaxEntries - rng.Intn(100)
		}
		nd := OrderedNode{N: n}
		var runs []byte
		for at := rng.Intn(n); at < n; {
			end := min(n, at+1+rng.Intn(40))
			nd.Runs = append(nd.Runs, [2]int{at, end})
			runs = binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint16(runs, uint16(at)), uint16(end-at))
			at = end + 1 + rng.Intn(n/4+1)
		}
		s := digest.NewShape(n)
		if got, want := OrderedSiblings(nd), s.Siblings(runs); got != want {
			t.Fatalf("n=%d runs %v: model %d siblings, proof %d", n, nd.Runs, got, want)
		}
	}
}

// TestOrderedPointReadVOBytes is the benchmark's read.point VO as the
// model prices it. A shard holds 8,192 rows on 4 KB pages: a leaf packs
// 112 entries (34 bytes each) beside its 16 group digests — 14 groups of
// 8 entries and 2 above them — so 74 leaves sit under a root of 74
// entries. A point read recomputes one entry of each; at a position among
// the first 64 of a node its proof is 7 entries, 7 groups and 1 group
// above them: 15 digests a node, 30 in all. With two 8-byte node records,
// the 16-byte top digest, the 1024-bit root signature and 31 bytes of
// header its VO is 671 bytes — the median the benchmark measures (its
// mean is lower: a row further right in a node ships fewer). The parent
// commit's flat commitment shipped F − 1 digests a level: 187 of 17
// bytes, 3,354 in all.
func TestOrderedPointReadVOBytes(t *testing.T) {
	p := Default()
	env := []OrderedNode{{N: 74, Runs: [][2]int{{20, 21}}}, {N: 112, Runs: [][2]int{{40, 41}}}}
	if got := OrderedDSCount(env); got != 30 {
		t.Fatalf("|D_S| = %d, want 15 + 15 = 30", got)
	}
	if got := p.OrderedVOBytes(env, 0, 128); got != 671 {
		t.Fatalf("point read VO = %d bytes, want 671", got)
	}
	// A row among a leaf's last 48 entries (6 groups under the second
	// top digest) ships 7 entries, 5 groups and 1 top digest there.
	env[1].Runs = [][2]int{{100, 101}}
	if got := OrderedDSCount(env); got != 7+5+1+15 {
		t.Fatalf("|D_S| = %d, want 28", got)
	}
}

// TestOrderedInsertHashes walks formula (11) restated for ordered
// commitments through its cases: the tuple's 9 non-key attribute hashes,
// its 3 column groups and the tuple hash (13: the key has no attribute
// digest), then a leaf that gains an entry rehashes the groups from the
// insertion point on, a node above it the one group per in-node level
// over the changed child, and a leaf whose in-node levels grow rehashes
// them all.
func TestOrderedInsertHashes(t *testing.T) {
	p := Default()
	const tuple = 9 + 3 + 1
	for _, tc := range []struct {
		path []InsertStep
		want int
	}{
		// A leaf of 10 (2 groups) inserted at 3: both groups and the node.
		{[]InsertStep{{N: 10, Pos: 3, Inserted: true}}, tuple + (1 + 2)},
		// A leaf of 116 (15 groups under 2) inserted at 40: groups 5..14,
		// both top groups and the node; above it a root of 71 (9 groups
		// under 2): one group a level and the node.
		{[]InsertStep{{N: 71, Pos: 20}, {N: 116, Pos: 40, Inserted: true}}, tuple + (1 + 2) + (1 + 10 + 2)},
		// 8 → 9 entries: the in-node levels grow, both groups are hashed.
		{[]InsertStep{{N: 9, Pos: 8, Inserted: true}}, tuple + 1 + 2},
		// 300 entries (38 groups under 5): one group a level above the child.
		{[]InsertStep{{N: 300, Pos: 100}, {N: 40, Pos: 0, Inserted: true}}, tuple + (1 + 2) + (1 + 5)},
	} {
		if got := p.OrderedInsertHashes(tc.path); got != tc.want {
			t.Errorf("%+v: %d hashes, want %d", tc.path, got, tc.want)
		}
	}
}

// TestColumnProofsOfEveryProjection counts the column proof of all 2^10
// projections of the benchmark's table (workload.DefaultSpec): a
// projection of Q_C columns ships at most N_C − Q_C digests a row, the
// benchmark's {id, cat, a2} exactly 3 (d(a3) and the two other groups),
// a full projection none. Over the 2^9 sets of non-key columns the mean
// is 3.75 digests a row, where a flat list of digests ships 4.5. Each
// row's recomputation hashes its returned non-key values, the column
// groups holding one and the tuple: 13 for a full projection.
// (verify.TestEveryProjectionShipsItsColumnSiblings ties the counts to
// real answers.)
func TestColumnProofsOfEveryProjection(t *testing.T) {
	const nc = 10
	total, sets := 0, 0
	for mask := 1; mask < 1<<nc; mask++ {
		var cols []int
		for ci := 0; ci < nc; ci++ {
			if mask&(1<<ci) != 0 {
				cols = append(cols, ci)
			}
		}
		pr := ProjectionOf(nc, 0, cols)
		if got := pr.Siblings(); got > nc-len(cols) {
			t.Errorf("projection %v ships %d digests a row, more than the %d columns it leaves out", cols, got, nc-len(cols))
		}
		if mask&1 == 0 || mask == 1 { // each set of non-key columns once, the empty one included
			total, sets = total+pr.Siblings(), sets+1
		}
	}
	if sets != 512 || total != 1920 {
		t.Errorf("%d sets of non-key columns ship %d digests a row in all, want 512 sets and 1,920 (a mean of 3.75)", sets, total)
	}
	for _, tc := range []struct {
		cols             []int
		siblings, hashes int
	}{
		{[]int{0, 1, 2}, 3, 2 + 1 + 1},
		{[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 0, 9 + 3 + 1},
		{[]int{0}, 3, 1},
		{[]int{1, 5, 9}, 6, 3 + 3 + 1},
	} {
		pr := ProjectionOf(nc, 0, tc.cols)
		if got := pr.Siblings(); got != tc.siblings {
			t.Errorf("projection %v ships %d digests a row, want %d", tc.cols, got, tc.siblings)
		}
		if got := pr.Hashes(); got != tc.hashes {
			t.Errorf("projection %v hashes %d times a row, want %d", tc.cols, got, tc.hashes)
		}
		if got := OrderedDPCount(256, pr); got != 256*tc.siblings {
			t.Errorf("projection %v: |D_P| of 256 rows = %d, want %d", tc.cols, got, 256*tc.siblings)
		}
	}
}
