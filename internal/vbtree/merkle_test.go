package vbtree

import (
	"bytes"
	"context"
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
// RSA-backed schemes retag the shared test key, so Merkle and legacy
// trees built here hold identical key material — the root-signature
// equivalence tests depend on that.
func newSchemeHarness(t testing.TB, n, pageSize int, scheme sig.Scheme) *harness {
	t.Helper()
	var k *sig.PrivateKey
	if scheme == sig.SchemeEd25519 {
		k = sig.MustGenerate(sig.SchemeEd25519, 0)
	} else {
		var err error
		k, err = signer(t).WithScheme(scheme)
		if err != nil {
			t.Fatal(err)
		}
	}
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

// TestMerkleRootSigMatchesLegacy is the equivalence property the whole
// optimization rests on: because digest values are mode-independent, a
// Merkle-interior tree and a legacy full-sign tree over the same content
// and key material produce byte-identical root signatures — through
// builds, inserts, batches and deletes.
func TestMerkleRootSigMatchesLegacy(t *testing.T) {
	f := func(seed int64) bool {
		legacy := newSchemeHarness(t, 50, 1024, sig.SchemeRSAFull)
		merkle := newSchemeHarness(t, 50, 1024, sig.SchemeRSAMerkle)
		if !legacy.tree.RootSig().Equal(merkle.tree.RootSig()) {
			t.Log("root signatures diverge after build")
			return false
		}
		// A mixed mutation sequence derived from the seed.
		n := int(uint64(seed) % 17)
		for i := 0; i < 5; i++ {
			k := 1000 + n*31 + i
			if err := legacy.tree.Insert(mkTuple(k)); err != nil {
				return false
			}
			if err := merkle.tree.Insert(mkTuple(k)); err != nil {
				return false
			}
		}
		var batch []schema.Tuple
		for i := 0; i < 8; i++ {
			batch = append(batch, mkTuple(2000+n+i))
		}
		if _, _, err := legacy.tree.InsertBatch(batch); err != nil {
			return false
		}
		if _, _, err := merkle.tree.InsertBatch(batch); err != nil {
			return false
		}
		if _, err := legacy.tree.DeleteRange(i64(10), i64(10+n)); err != nil {
			return false
		}
		if _, err := merkle.tree.DeleteRange(i64(10), i64(10+n)); err != nil {
			return false
		}
		if !legacy.tree.RootSig().Equal(merkle.tree.RootSig()) {
			t.Logf("seed %d: root signatures diverge after mutations", seed)
			return false
		}
		ru, err := legacy.tree.RootDigest()
		if err != nil {
			return false
		}
		mu, err := merkle.tree.RootDigest()
		if err != nil {
			return false
		}
		return ru.Equal(mu)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

// TestMerkleBatchSignsOnlyRoot pins the headline accounting: in Merkle
// mode a batch commit signs nothing, no matter how many nodes it dirties,
// and the one digest a Merkle tree signs — the root — is signed once, by
// the first RootSig after the commit; the legacy tree re-signs every
// dirty node at the commit.
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
	u, err := merkle.tree.RootDigest()
	if err != nil {
		t.Fatal(err)
	}
	if err := merkle.key.Public().Verify(first, u); err != nil {
		t.Fatalf("the root signature does not authenticate the root digest: %v", err)
	}
	legacy := newSchemeHarness(t, 200, 1024, sig.SchemeRSAFull)
	lst, _, err := legacy.tree.InsertBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if lst.NodesResigned <= 1 {
		t.Fatalf("legacy batch re-signed %d nodes; the tree is too shallow to mean anything", lst.NodesResigned)
	}
}

// TestMerkleTreesStayVerifiable: audits and verified queries pass under
// both Merkle schemes after a round of mutations.
func TestMerkleTreesStayVerifiable(t *testing.T) {
	for _, scheme := range []sig.Scheme{sig.SchemeRSAMerkle, sig.SchemeEd25519} {
		t.Run(scheme.String(), func(t *testing.T) {
			h := newSchemeHarness(t, 120, 1024, scheme)
			if !h.tree.MerkleMode() {
				t.Fatal("tree not in merkle mode")
			}
			if err := h.tree.Insert(mkTuple(900)); err != nil {
				t.Fatal(err)
			}
			if _, err := h.tree.DeleteRange(i64(20), i64(29)); err != nil {
				t.Fatal(err)
			}
			if _, err := h.tree.Audit(); err != nil {
				t.Fatal(err)
			}
			rs, w, err := h.tree.RunQuery(context.Background(), Query{Lo: i64(10), Hi: i64(60)})
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
// combiner arithmetic at all — the Merkle root digest was recombined when
// first asked for and is not recombined again.
func TestViewSharedByConcurrentQueries(t *testing.T) {
	ctx := context.Background()
	h := newSchemeHarness(t, 300, 1024, sig.SchemeRSAMerkle)
	var counters digest.Counters
	params := digest.DefaultParams()
	params.Counters = &counters
	view := func() *View {
		tr := h.tree
		v, err := NewView(ViewConfig{
			Pages: tr.bp, HeapPages: tr.heap.Pages(), Schema: tr.sch, Acc: digest.MustNew(params),
			Pub: tr.pub, Now: tr.now, Root: tr.root, Height: tr.height, RootSig: tr.RootSig(),
		})
		if err != nil {
			t.Fatal(err)
		}
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
	perColdAnswer := counters.Snapshot().CombineOps / int64(len(queries))
	if perColdAnswer == 0 {
		t.Fatal("a cold view recombined nothing: the counter is not on the path this test is about")
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
	if n := counters.Snapshot().CombineOps; n != 0 {
		t.Errorf("%d combines over %d answers from a warm view, want 0 (a cold one costs %d each)", n, len(queries), perColdAnswer)
	}
	rs, w, err := shared.RunQuery(ctx, queries[3])
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ver.Verify(rs, w); err != nil {
		t.Fatalf("an answer from the shared view does not verify: %v", err)
	}
}
