package vbtree

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"edgeauth/internal/costmodel"
	"edgeauth/internal/digest"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
	"edgeauth/internal/workload"
)

var (
	batchKeyOnce sync.Once
	batchKey     *sig.PrivateKey
)

func batchSigner(t testing.TB) *sig.PrivateKey {
	t.Helper()
	batchKeyOnce.Do(func() { batchKey = sig.MustGenerate(sig.SchemeRSAMerkle, 512) })
	return batchKey
}

// newBatchTree builds a tree over the workload spec with the given fill.
func newBatchTree(t testing.TB, rows int, fill float64) (*Tree, *schema.Schema, []schema.Tuple) {
	t.Helper()
	k := batchSigner(t)
	spec := workload.DefaultSpec(rows)
	sch, err := spec.Schema()
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := spec.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	mem, err := storage.NewMemPager(1024)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := storage.NewBufferPool(mem, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := storage.NewHeapFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(Config{
		Pool: bp, Heap: heap, Schema: sch, Acc: digest.MustNew(digest.DefaultParams()),
		Signer: k, Pub: k.Public(), BuildParallelism: 4,
	}, tuples, fill)
	if err != nil {
		t.Fatal(err)
	}
	return tree, sch, tuples
}

func batchRow(sch *schema.Schema, id int64) schema.Tuple {
	vals := make([]schema.Datum, len(sch.Columns))
	vals[0] = schema.Int64(id)
	for c := 1; c < len(vals); c++ {
		vals[c] = schema.Str(fmt.Sprintf("batch-payload-%08d", id))
	}
	return schema.Tuple{Values: vals}
}

// TestInsertBatchMatchesPerTuple checks the batch path lands on the exact
// same tree as per-tuple inserts: same structure, same digests, same
// (deterministic) root signature — the commutative combiner at work.
func TestInsertBatchMatchesPerTuple(t *testing.T) {
	perTuple, sch, _ := newBatchTree(t, 200, 0.7)
	batched, _, _ := newBatchTree(t, 200, 0.7)

	var rows []schema.Tuple
	for i := int64(0); i < 40; i++ {
		rows = append(rows, batchRow(sch, 10_000+i*3))
	}
	for _, r := range rows {
		if err := perTuple.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	stats, opErrs, err := batched.InsertBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range opErrs {
		if e != nil {
			t.Fatalf("op %d failed: %v", i, e)
		}
	}
	if stats.Applied != len(rows) {
		t.Fatalf("applied %d of %d", stats.Applied, len(rows))
	}
	if !perTuple.RootSig().Equal(batched.RootSig()) {
		t.Fatal("batched tree's root signature diverges from per-tuple inserts")
	}
	if perTuple.Height() != batched.Height() {
		t.Fatalf("heights diverge: %d vs %d", perTuple.Height(), batched.Height())
	}
	if _, err := audit(batched); err != nil {
		t.Fatalf("audit after batch: %v", err)
	}
}

// TestInsertBatchVerifiesEndToEnd runs a verified query over a
// batch-mutated tree, covering splits and root growth.
func TestInsertBatchVerifiesEndToEnd(t *testing.T) {
	tree, sch, tuples := newBatchTree(t, 150, 1.0)

	// Sequential keys beyond the existing range: forces leaf splits and at
	// least one level of growth at this page size.
	var rows []schema.Tuple
	for i := int64(0); i < 300; i++ {
		rows = append(rows, batchRow(sch, 50_000+i))
	}
	stats, opErrs, err := tree.InsertBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range opErrs {
		if e != nil {
			t.Fatalf("op %d failed: %v", i, e)
		}
	}
	if stats.Applied != len(rows) {
		t.Fatalf("applied %d of %d", stats.Applied, len(rows))
	}
	if n, err := audit(tree); err != nil || n != len(tuples)+len(rows) {
		t.Fatalf("audit: n=%d err=%v, want %d tuples", n, err, len(tuples)+len(rows))
	}

	lo, hi := schema.Int64(50_010), schema.Int64(50_030)
	rs, w, err := runQuery(tree, Query{Lo: &lo, Hi: &hi})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Tuples) != 21 {
		t.Fatalf("queried %d rows, want 21", len(rs.Tuples))
	}
	if w.TopDigest == nil {
		t.Fatal("query over batch-built region returned no VO anchor")
	}
}

// TestInsertBatchSignerCounting pins the headline accounting: an insert
// signs nothing, batched or one at a time, however many tuples and nodes
// it touches — the one signature a tree makes is over a root digest, made
// by the first RootSig after the root changed.
func TestInsertBatchSignerCounting(t *testing.T) {
	tree, sch, _ := newBatchTree(t, 200, 0.6)
	k := batchSigner(t)
	var ctr digest.Counters
	k.SetCounters(&ctr)
	defer k.SetCounters(nil)

	var rows []schema.Tuple
	for i := int64(0); i < 32; i++ {
		rows = append(rows, batchRow(sch, 20_000+i*11))
	}
	ctr.Reset()
	stats, opErrs, err := tree.InsertBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range opErrs {
		if e != nil {
			t.Fatalf("op %d failed: %v", i, e)
		}
	}
	if signs := ctr.Snapshot().SignOps; signs != 0 || stats.NodesResigned != 0 || stats.Applied != len(rows) {
		t.Fatalf("batch of %d spent %d signatures (stats %+v), want none", len(rows), signs, stats)
	}
	tree.RootSig()
	tree.RootSig()
	if signs := ctr.Snapshot().SignOps; signs != 1 {
		t.Fatalf("two RootSig calls after the batch spent %d signatures, want 1", signs)
	}

	// One tuple at a time: still nothing per tuple, one per root asked for.
	ctr.Reset()
	for i := int64(0); i < 8; i++ {
		if err := tree.Insert(batchRow(sch, 30_000+i*7)); err != nil {
			t.Fatal(err)
		}
	}
	if signs := ctr.Snapshot().SignOps; signs != 0 {
		t.Fatalf("8 single inserts spent %d signatures, want none", signs)
	}
	if _, err := audit(tree); err != nil {
		t.Fatal(err)
	}
	if signs := ctr.Snapshot().SignOps; signs != 0 {
		t.Fatalf("an audit after 8 inserts spent %d signatures, want none: it ships no VO", signs)
	}
	if _, _, err := runQuery(tree, Query{}); err != nil {
		t.Fatal(err)
	}
	if signs := ctr.Snapshot().SignOps; signs != 1 {
		t.Fatalf("a query after 8 inserts spent %d signatures, want the root's 1", signs)
	}
}

// TestInsertBatchPerOpErrors checks duplicate keys (against the table and
// inside the batch) fail individually without aborting the batch.
func TestInsertBatchPerOpErrors(t *testing.T) {
	tree, sch, _ := newBatchTree(t, 100, 1.0)

	rows := []schema.Tuple{
		batchRow(sch, 40_000),
		batchRow(sch, 50), // exists in the base table
		batchRow(sch, 40_001),
		batchRow(sch, 40_000),                          // duplicates inside the batch
		{Values: []schema.Datum{schema.Int64(40_002)}}, // wrong arity
		batchRow(sch, 40_003),
	}
	stats, opErrs, err := tree.InsertBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != 3 {
		t.Fatalf("applied %d, want 3", stats.Applied)
	}
	for _, i := range []int{0, 2, 5} {
		if opErrs[i] != nil {
			t.Fatalf("op %d failed: %v", i, opErrs[i])
		}
	}
	for _, i := range []int{1, 3} {
		if !errors.Is(opErrs[i], ErrDuplicateKey) {
			t.Fatalf("op %d error = %v, want ErrDuplicateKey", i, opErrs[i])
		}
	}
	if opErrs[4] == nil {
		t.Fatal("wrong-arity tuple accepted")
	}
	if _, err := audit(tree); err != nil {
		t.Fatalf("audit after partial batch: %v", err)
	}
	// The applied rows are queryable; the failed ones did not corrupt.
	for _, id := range []int64{40_000, 40_001, 40_003} {
		if _, found, err := search(tree, schema.Int64(id)); err != nil || !found {
			t.Fatalf("row %d missing after batch (err=%v)", id, err)
		}
	}
}

// TestInsertBatchEmptyAndReadOnly covers the degenerate inputs.
func TestInsertBatchEmptyAndReadOnly(t *testing.T) {
	tree, sch, _ := newBatchTree(t, 50, 1.0)
	before := tree.RootSig()
	stats, opErrs, err := tree.InsertBatch(nil)
	if err != nil || opErrs != nil || stats.Applied != 0 || stats.NodesResigned != 0 {
		t.Fatalf("empty batch: stats=%+v errs=%v err=%v", stats, opErrs, err)
	}
	if !tree.RootSig().Equal(before) {
		t.Fatal("empty batch changed the root signature")
	}

	// All-duplicates batch: nothing applied, nothing re-signed.
	stats, opErrs, err = tree.InsertBatch([]schema.Tuple{batchRow(sch, 1), batchRow(sch, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != 0 || stats.NodesResigned != 0 {
		t.Fatalf("all-duplicate batch stats = %+v, want zeros", stats)
	}
	if !errors.Is(opErrs[0], ErrDuplicateKey) || !errors.Is(opErrs[1], ErrDuplicateKey) {
		t.Fatalf("all-duplicate batch errors = %v", opErrs)
	}
	if !tree.RootSig().Equal(before) {
		t.Fatal("no-op batch changed the root signature")
	}

	// A replica has no tree to batch-insert into: without a signer there
	// is no Tree, only a View of one.
	k := batchSigner(t)
	cfg := Config{Pool: tree.bp, Heap: tree.heap, Schema: tree.sch, Acc: tree.acc, Pub: k.Public()}
	if _, err := Build(cfg, []schema.Tuple{batchRow(sch, 60_000)}, 1.0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("signer-less build: %v, want ErrReadOnly", err)
	}
}

// newSchemeTree builds a rows-row workload tree under scheme whose
// accumulator, public key and signer all count into the returned
// counters.
func newSchemeTree(t testing.TB, scheme sig.Scheme, rows int, fill float64) (*Tree, *schema.Schema, *digest.Counters) {
	t.Helper()
	k := schemeKey(t, scheme)
	ctr := &digest.Counters{}
	k.SetCounters(ctr)
	p := digest.DefaultParams()
	p.Counters = ctr
	pub := k.Public()
	pub.Counters = ctr
	spec := workload.DefaultSpec(rows)
	sch, err := spec.Schema()
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := spec.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	mem, err := storage.NewMemPager(1024)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := storage.NewBufferPool(mem, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := storage.NewHeapFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(Config{
		Pool: bp, Heap: heap, Schema: sch, Acc: digest.MustNew(p),
		Signer: k, Pub: pub, BuildParallelism: 4,
	}, tuples, fill)
	if err != nil {
		t.Fatal(err)
	}
	return tree, sch, ctr
}

// TestInsertCostIsFormula11 ties formula (11) to the live counters: an
// insert that splits nothing commits by ordered hashes and combines,
// recovers and signs nothing — the root is signed when first asked for,
// not at the commit. Formula (11) restated (costmodel.OrderedInsertHashes)
// is N_C − 1 attribute hashes (the key has none), a hash per column
// group, one tuple hash, and on each node of the path
// its node hash plus the group digests over the entries that changed or
// moved — in the leaf every group from the insertion point on, above it
// one per in-node level. (The paper's per-node scheme, whose cost
// costmodel.InsertCost keeps, signs N_C + 1 + H digests and recovers
// H − 1.)
func TestInsertCostIsFormula11(t *testing.T) {
	for _, scheme := range []sig.Scheme{sig.SchemeRSAMerkle, sig.SchemeEd25519} {
		for _, rows := range []int{200, 2000} {
			tree, sch, ctr := newSchemeTree(t, scheme, rows, 0.7)
			before, err := stats(tree, 9)
			if err != nil {
				t.Fatal(err)
			}
			nc, h := int64(len(sch.Columns)), int64(before.Height)
			path := insertPath(t, tree, batchRow(sch, 10_001))
			ctr.Reset()
			if err := tree.Insert(batchRow(sch, 10_001)); err != nil {
				t.Fatal(err)
			}
			got := ctr.Snapshot()
			after, err := stats(tree, 9)
			if err != nil {
				t.Fatal(err)
			}
			if after.LeafNodes != before.LeafNodes || after.Height != before.Height {
				t.Fatalf("%v/%d: the insert split a node (%+v -> %+v)", scheme, rows, before, after)
			}
			p := costmodel.Default()
			p.NC = int(nc)
			wantHashes, wantCombines, wantRecovers, wantSigns := int64(p.OrderedInsertHashes(path)), int64(0), int64(0), int64(0)
			if got.HashOps != wantHashes || got.CombineOps != wantCombines || got.RecoverOps != wantRecovers || got.SignOps != wantSigns {
				t.Errorf("%v/%d rows (H=%d): hash/combine/recover/sign = %d/%d/%d/%d, want %d/%d/%d/%d",
					scheme, rows, h, got.HashOps, got.CombineOps, got.RecoverOps, got.SignOps,
					wantHashes, wantCombines, wantRecovers, wantSigns)
			}
		}
	}
}

// insertPath is the path an insert of tup would take through tree, as
// costmodel.OrderedInsertHashes prices it: each internal node's child
// count and the child it descends to, then the leaf's count after the
// insert and the position the tuple takes.
func insertPath(t *testing.T, tree *Tree, tup schema.Tuple) []costmodel.InsertStep {
	t.Helper()
	key := tup.Key(tree.sch).KeyBytes()
	var path []costmodel.InsertStep
	for pid := tree.root; ; {
		pt, err := tree.pageType(pid)
		if err != nil {
			t.Fatal(err)
		}
		if pt == storage.PageVBLeaf {
			n, err := tree.fetchLeaf(pid)
			if err != nil {
				t.Fatal(err)
			}
			return append(path, costmodel.InsertStep{N: len(n.keys) + 1, Pos: n.search(key), Inserted: true})
		}
		n, err := tree.fetchInternal(pid)
		if err != nil {
			t.Fatal(err)
		}
		ci := n.childIndex(key)
		path = append(path, costmodel.InsertStep{N: len(n.children), Pos: ci})
		pid = n.children[ci]
	}
}

// TestSplittingInsertCostsNoMoreThanParent: an insert that splits
// recomputes the split halves from their entries. The ceilings are what
// the ordered commitment spends on trees of 1 KB pages, packed full, for
// key -1 into the first leaf — a root leaf that grows the tree, a leaf
// split, and a leaf and internal split: it hashes a split node's groups
// and combines nothing; a 1 KB leaf holds 24 entries beside its group
// digests, so 24 rows are one full leaf. The one signature is the Audit's
// root signature. Each ceiling is formula (11)'s count with the splits
// priced in: 13 for the tuple (9 attribute hashes, 3 column groups, the
// tuple hash), every group and the node hash of each split half, and the
// parent's insert of the new half:
//   - 24 rows: halves of 12 and 13 entries (6 and 7 groups) and a new
//     root of 2: 13 + 7 + 8 + 1 = 29;
//   - 200 rows: the same halves, and a root of 9 children grows to 10,
//     which adds an in-node level, so all 6 of its groups: 13 + 15 + 7 = 35;
//   - 2000 rows: the same halves, an internal node of 26 children split
//     into 13 and 14 (7 groups each), and a root of 4 gaining a child at
//     1 (2 groups): 13 + 15 + 16 + 3 = 47.
//
// The ceilings are these exact arity-3 counts, not the parent commit's,
// which they exceed. The parent commit (2c6ee41), whose in-node groups
// held 8 entries, spent 20, 22 and 26 hashes on 28, 200 and 2,000 rows — 27, 31 and 41
// SHA-256 blocks, where these take 30, 36 and 48: an arity-3 group is
// one block, an arity-8 group three.
func TestSplittingInsertCostsNoMoreThanParent(t *testing.T) {
	for _, tc := range []struct {
		scheme sig.Scheme
		rows   int
		grows  bool
		// hash, combine, recover, sign
		ceil [4]int64
	}{
		{sig.SchemeRSAMerkle, 24, true, [4]int64{29, 0, 0, 1}},
		{sig.SchemeRSAMerkle, 200, false, [4]int64{35, 0, 0, 1}},
		{sig.SchemeRSAMerkle, 2000, false, [4]int64{47, 0, 0, 1}},
	} {
		tree, sch, ctr := newSchemeTree(t, tc.scheme, tc.rows, 1.0)
		before, err := stats(tree, 9)
		if err != nil {
			t.Fatal(err)
		}
		ctr.Reset()
		if err := tree.Insert(batchRow(sch, -1)); err != nil {
			t.Fatal(err)
		}
		s := ctr.Snapshot()
		after, err := stats(tree, 9)
		if err != nil {
			t.Fatal(err)
		}
		if after.LeafNodes != before.LeafNodes+1 || (after.Height > before.Height) != tc.grows {
			t.Fatalf("%v/%d: shape %+v -> %+v, want one leaf split (root growth %v)", tc.scheme, tc.rows, before, after, tc.grows)
		}
		got := [4]int64{s.HashOps, s.CombineOps, s.RecoverOps, s.SignOps}
		for i, name := range []string{"hashes", "combines", "recoveries", "signatures"} {
			if got[i] > tc.ceil[i] {
				t.Errorf("%v/%d: splitting insert spent %d %s, ceiling %d", tc.scheme, tc.rows, got[i], name, tc.ceil[i])
			}
		}
		if _, err := audit(tree); err != nil {
			t.Fatalf("%v/%d: audit after split: %v", tc.scheme, tc.rows, err)
		}
	}
}

// TestInsertBatchRandomMatchesOneAtATime feeds two trees the same random
// tuples — one in batches of 1–300, the other one tuple at a time — from
// a single leaf until the tree is several levels deep, so leaf splits,
// internal splits and root growth all land inside batches. After every
// batch the batched tree audits clean and its root digest and per-op
// errors equal the one-at-a-time tree's.
func TestInsertBatchRandomMatchesOneAtATime(t *testing.T) {
	for _, scheme := range []sig.Scheme{sig.SchemeRSAMerkle} {
		t.Run(scheme.String(), func(t *testing.T) {
			batched, sch, _ := newSchemeTree(t, scheme, 0, 1.0)
			single, _, _ := newSchemeTree(t, scheme, 0, 1.0)
			rng := rand.New(rand.NewSource(29))
			for round := 0; round < 10; round++ {
				rows := make([]schema.Tuple, 1+rng.Intn(300))
				for i := range rows {
					rows[i] = batchRow(sch, rng.Int63n(5000)-1000)
				}
				_, opErrs, err := batched.InsertBatch(rows)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range rows {
					if err := single.Insert(r); !errors.Is(err, opErrs[i]) {
						t.Fatalf("round %d op %d: batched error %v, one at a time %v", round, i, opErrs[i], err)
					}
				}
				if _, err := audit(batched); err != nil {
					t.Fatalf("round %d (%d tuples): audit: %v", round, len(rows), err)
				}
				bu := batched.RootDigest()
				su := single.RootDigest()
				if !bu.Equal(su) {
					t.Fatalf("round %d (%d tuples): batched root %v, one at a time %v", round, len(rows), bu, su)
				}
			}
			if h := batched.Height(); h < 3 {
				t.Fatalf("tree reached height %d; the rounds must grow it past one internal level", h)
			}
		})
	}
}
