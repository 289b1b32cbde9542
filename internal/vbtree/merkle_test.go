package vbtree

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"edgeauth/internal/digest"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
	"edgeauth/internal/verify"
)

// newSchemeHarness is newHarness with an explicit signature scheme.
func newSchemeHarness(t testing.TB, n, pageSize int, scheme sig.Scheme) *harness {
	t.Helper()
	k := schemeKey(t, scheme)
	mem, err := storage.NewMemPager(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := storage.NewBufferPool(mem, 8192)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := storage.NewHeapFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	acc := digest.MustNew(digest.DefaultParams())
	cfg := Config{
		Pool:   bp,
		Heap:   heap,
		Schema: testSchema(),
		Acc:    acc,
		Signer: k,
		Pub:    k.Public(),
		Now:    func() int64 { return 1_700_000_000 },
	}
	tuples := make([]schema.Tuple, n)
	for i := 0; i < n; i++ {
		tuples[i] = mkTuple(i)
	}
	tree, err := Build(cfg, tuples, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{
		tree: tree,
		ver: &verify.Verifier{Key: k.Public(), Acc: acc, Schema: cfg.Schema,
			Now: func() int64 { return 1_700_000_000 }},
		key: k,
		cfg: cfg,
	}
}

// TestOrderedRootSurvivesMutations: under both schemes a tree
// keeps the invariant everything it serves rests on — through builds,
// inserts, batches and deletes, every stored attribute, tuple, group and
// node digest is what its content hashes to (Audit), and the root
// signature verifies over the root digest the tree reports.
func TestOrderedRootSurvivesMutations(t *testing.T) {
	f := func(seed int64) bool {
		for _, scheme := range []sig.Scheme{sig.SchemeRSAMerkle, sig.SchemeEd25519} {
			h := newSchemeHarness(t, 50, 1024, scheme)
			n := int(uint64(seed) % 17)
			for i := 0; i < 5; i++ {
				if err := h.tree.Insert(mkTuple(1000 + n*31 + i)); err != nil {
					t.Log(err)
					return false
				}
			}
			var batch []schema.Tuple
			for i := 0; i < 8; i++ {
				batch = append(batch, mkTuple(2000+n+i))
			}
			if _, _, err := h.tree.InsertBatch(batch); err != nil {
				t.Log(err)
				return false
			}
			if _, err := h.tree.DeleteRange(i64(10), i64(10+n)); err != nil {
				t.Log(err)
				return false
			}
			if _, err := audit(h.tree); err != nil {
				t.Logf("%v, seed %d: %v", scheme, seed, err)
				return false
			}
			u := h.tree.RootDigest()
			if err := h.key.Public().Verify(h.tree.RootSig(), u); err != nil {
				t.Logf("%v, seed %d: root signature: %v", scheme, seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

// TestMerkleBatchSignsOnlyRoot pins the headline accounting: a batch
// commit signs nothing, no matter how many nodes it dirties, and the one
// digest a tree signs — the root — is signed once, by the first RootSig
// after the commit.
func TestMerkleBatchSignsOnlyRoot(t *testing.T) {
	batch := make([]schema.Tuple, 64)
	for i := range batch {
		batch[i] = mkTuple(5000 + i*3)
	}
	merkle := newSchemeHarness(t, 200, 1024, sig.SchemeRSAMerkle)
	var ctr digest.Counters
	merkle.key.SetCounters(&ctr)
	st, opErrs, err := merkle.tree.InsertBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range opErrs {
		if e != nil {
			t.Fatal(e)
		}
	}
	if st.Applied != len(batch) || st.NodesResigned != 0 || ctr.SignOps.Load() != 0 {
		t.Fatalf("merkle batch stats = %+v after %d signatures, want Applied=%d, nothing signed", st, ctr.SignOps.Load(), len(batch))
	}
	first := merkle.tree.RootSig()
	if !merkle.tree.RootSig().Equal(first) || ctr.SignOps.Load() != 1 {
		t.Fatalf("two RootSig calls after the commit signed %d times, want the root once", ctr.SignOps.Load())
	}
	u := merkle.tree.RootDigest()
	if err := merkle.key.Public().Verify(first, u); err != nil {
		t.Fatalf("the root signature does not authenticate the root digest: %v", err)
	}
	if h := merkle.tree.Height(); h < 2 {
		t.Fatalf("tree of height %d: the batch dirtied only the root, too little to mean anything", h)
	}
}

// TestMerkleTreesStayVerifiable: audits and verified queries pass under
// both schemes after a round of mutations.
func TestMerkleTreesStayVerifiable(t *testing.T) {
	for _, scheme := range []sig.Scheme{sig.SchemeRSAMerkle, sig.SchemeEd25519} {
		t.Run(scheme.String(), func(t *testing.T) {
			h := newSchemeHarness(t, 120, 1024, scheme)
			if err := h.tree.Insert(mkTuple(900)); err != nil {
				t.Fatal(err)
			}
			if _, err := h.tree.DeleteRange(i64(20), i64(29)); err != nil {
				t.Fatal(err)
			}
			if _, err := audit(h.tree); err != nil {
				t.Fatal(err)
			}
			rs, w, err := runQuery(h.tree, Query{Lo: i64(10), Hi: i64(60)})
			if err != nil {
				t.Fatal(err)
			}
			if len(rs.Tuples) != 41 { // 10..60 minus deleted 20..29
				t.Fatalf("got %d tuples, want 41", len(rs.Tuples))
			}
			if len(w.RootSig) == 0 {
				t.Fatal("merkle VO carries no root signature")
			}
			if err := h.ver.Verify(rs, w); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestViewSharedByConcurrentQueries: one View serves every query of a
// published snapshot (the edge keeps one beside each shard's pin). Queries
// that reach a cold view together all return the bytes a view of their own
// would have produced, and once the view is warm an answer costs no
// hashing at all — the Merkle root digest was hashed from the root page
// when first asked for and is not hashed again, and every digest of a
// proof is copied from a page.
func TestViewSharedByConcurrentQueries(t *testing.T) {
	ctx := context.Background()
	h := newSchemeHarness(t, 300, 1024, sig.SchemeRSAMerkle)
	var counters digest.Counters
	params := digest.DefaultParams()
	params.Counters = &counters
	view := func() *View {
		tr := h.tree
		st := TableState{Root: tr.root, Height: tr.height, RootSig: tr.RootSig()}
		v, err := st.ViewOver(tr.bp, tr.sch, digest.MustNew(params), tr.pub)
		if err != nil {
			t.Fatal(err)
		}
		v.now = tr.now
		return v
	}
	queries := make([]Query, 12)
	want := make([][]byte, len(queries))
	for i := range queries {
		lo, hi := schema.Int64(int64(i*20)), schema.Int64(int64(i*20+i))
		queries[i] = Query{Lo: &lo, Hi: &hi, Project: []string{"id"}}
		var err error
		if want[i], _, err = view().AppendAnswer(ctx, queries[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	perColdAnswer := counters.Snapshot().HashOps / int64(len(queries))
	if perColdAnswer == 0 {
		t.Fatal("a cold view hashed nothing: the counter is not on the path this test is about")
	}

	shared := view()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range queries {
				qi := (i + g) % len(queries)
				got, _, err := shared.AppendAnswer(ctx, queries[qi], nil)
				if err != nil {
					t.Errorf("shared view, query %d: %v", qi, err)
					return
				}
				if !bytes.Equal(got, want[qi]) {
					t.Errorf("shared view, query %d: answer differs from a private view's", qi)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	counters.Reset()
	for i, q := range queries {
		got, _, err := shared.AppendAnswer(ctx, q, nil)
		if err != nil || !bytes.Equal(got, want[i]) {
			t.Fatalf("warm view, query %d: err %v, same bytes: %v", i, err, bytes.Equal(got, want[i]))
		}
	}
	if c := counters.Snapshot(); c.HashOps+c.CombineOps != 0 {
		t.Errorf("%d hashes and %d combines over %d answers from a warm view, want 0 (a cold one hashes %d times)",
			c.HashOps, c.CombineOps, len(queries), perColdAnswer)
	}
	rs, w, err := shared.RunQuery(ctx, queries[3])
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ver.Verify(rs, w); err != nil {
		t.Fatalf("an answer from the shared view does not verify: %v", err)
	}
}

// TestAuditChecksStoredGroupDigests: an ordered tree's pages store each
// node's in-node group digests, which answers copy into proofs unhashed,
// so Audit rehashes them. One flipped bit in one stored group digest of
// one leaf fails it.
func TestAuditChecksStoredGroupDigests(t *testing.T) {
	h := newSchemeHarness(t, 300, 1024, sig.SchemeRSAMerkle)
	if _, err := audit(h.tree); err != nil {
		t.Fatal(err)
	}
	// The leftmost leaf, packed full: more entries than one group holds.
	pid := h.tree.root
	for {
		pt, err := h.tree.pageType(pid)
		if err != nil {
			t.Fatal(err)
		}
		if pt == storage.PageVBLeaf {
			break
		}
		n, err := h.tree.fetchInternal(pid)
		if err != nil {
			t.Fatal(err)
		}
		pid = n.children[0]
	}
	f, err := h.tree.bp.Fetch(pid)
	if err != nil {
		t.Fatal(err)
	}
	c, err := openLeaf(f.Page().Bytes())
	if err != nil || len(c.groups) == 0 {
		t.Fatalf("leaf of %d entries stores %d group bytes (%v)", c.count, len(c.groups), err)
	}
	c.groups[len(c.groups)-1] ^= 1
	h.tree.bp.Unpin(f, true)
	if _, err := audit(h.tree); err == nil || !strings.Contains(err.Error(), "group digests") {
		t.Fatalf("audit over a flipped group digest: %v", err)
	}
}
