package vbtree

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"edgeauth/internal/digest"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
	"edgeauth/internal/verify"
	"edgeauth/internal/vo"
)

var (
	keyOnce sync.Once
	testKey *sig.PrivateKey
)

// trusted returns a registry that trusts pub alone.
func trusted(pub *sig.PublicKey) *sig.Registry {
	r := sig.NewRegistry()
	r.Put(pub)
	return r
}

func signer(t testing.TB) *sig.PrivateKey {
	t.Helper()
	keyOnce.Do(func() { testKey = sig.MustGenerate(sig.SchemeRSAMerkle, 512) })
	return testKey
}

// schemeKey returns a key of the scheme that the caller may change (its
// counters, its validity): a copy of the shared RSA test key, or a fresh
// Ed25519 one.
func schemeKey(t testing.TB, scheme sig.Scheme) *sig.PrivateKey {
	t.Helper()
	if scheme == sig.SchemeEd25519 {
		return sig.MustGenerate(sig.SchemeEd25519, 0)
	}
	k := *signer(t)
	return &k
}

func testSchema() *schema.Schema {
	return &schema.Schema{
		DB:    "edgedb",
		Table: "orders",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TypeInt64},
			{Name: "customer", Type: schema.TypeString},
			{Name: "amount", Type: schema.TypeFloat64},
			{Name: "notes", Type: schema.TypeString},
		},
		Key: 0,
	}
}

func mkTuple(i int) schema.Tuple {
	return schema.NewTuple(
		schema.Int64(int64(i)),
		schema.Str(fmt.Sprintf("cust-%03d", i%7)),
		schema.Float64(float64(i)*1.5),
		schema.Str(fmt.Sprintf("note for order %d", i)),
	)
}

type harness struct {
	tree *Tree
	ver  *verify.Verifier
	key  *sig.PrivateKey
	cfg  Config
}

// newHarness builds a VB-tree over n sequential tuples with small pages so
// even modest n produces a multi-level tree.
func newHarness(t testing.TB, n, pageSize int) *harness {
	t.Helper()
	k := signer(t)
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
		// The tree's clock is pinned above, so the verifier's clock pins to
		// the same instant (freshness is e2e-tested in verify and tamper).
		ver: &verify.Verifier{Keys: trusted(k.Public()), Acc: acc, Schema: cfg.Schema,
			Now: func() int64 { return 1_700_000_000 }},
		key: k,
		cfg: cfg,
	}
}

func i64(v int) *schema.Datum {
	d := schema.Int64(int64(v))
	return &d
}

func (h *harness) query(t testing.TB, q Query) (*vo.ResultSet, *vo.VO) {
	t.Helper()
	rs, w, err := runQuery(h.tree, h.key, q)
	if err != nil {
		t.Fatalf("RunQuery: %v", err)
	}
	return rs, w
}

// runQuery answers q from a view of the tree's live pages, and signs
// the root digest its VO carries with key, so the VO verifies.
func runQuery(tree *Tree, key *sig.PrivateKey, q Query) (rs *vo.ResultSet, w *vo.VO, err error) {
	err = tree.Read(func(v *View) error {
		rs, w, err = v.RunQuery(context.Background(), q)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	w.RootSig, err = key.Sign(w.TopDigest)
	return rs, w, err
}

// rootSig is the harness key's signature over the tree's root digest.
func (h *harness) rootSig() sig.Signature { return h.key.MustSign(h.tree.RootDigest()) }

// search looks key up in a view of the tree's live pages.
func search(tree *Tree, key schema.Datum) (st *vo.StoredTuple, found bool, err error) {
	err = tree.Read(func(v *View) error {
		st, found, err = v.Search(key)
		return err
	})
	return st, found, err
}

// stats walks a view of the tree's live pages.
func stats(tree *Tree, keyLen int) (s Stats, err error) {
	err = tree.Read(func(v *View) error {
		s, err = v.Stats(keyLen)
		return err
	})
	return s, err
}

// audit runs View.Audit over the tree's live pages and checks the root
// digest it recomputes against the one the tree holds.
func audit(tree *Tree) (int, error) {
	var n int
	var root digest.Value
	err := tree.Read(func(v *View) (err error) {
		n, root, err = v.Audit()
		return err
	})
	if err != nil {
		return n, err
	}
	if want := tree.RootDigest(); !root.Equal(want) {
		return n, fmt.Errorf("audit recomputed root %x, the tree holds %x", root, want)
	}
	return n, nil
}

func (h *harness) mustVerify(t testing.TB, rs *vo.ResultSet, w *vo.VO) {
	t.Helper()
	if err := h.ver.Verify(rs, w); err != nil {
		t.Fatalf("Verify rejected an authentic result: %v", err)
	}
}

func TestBuildShape(t *testing.T) {
	h := newHarness(t, 300, 1024)
	st, err := stats(h.tree, 8)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 300 {
		t.Fatalf("Entries = %d, want 300", st.Entries)
	}
	if st.Height < 2 {
		t.Fatalf("expected multi-level tree, height = %d", st.Height)
	}
	if st.Height != h.tree.Height() {
		t.Fatalf("walked height %d != recorded height %d", st.Height, h.tree.Height())
	}
	if h.tree.Root() == storage.InvalidPageID {
		t.Fatal("invalid root")
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	h := newHarness(t, 0, 1024)
	// Unsorted tuples.
	if _, err := Build(h.cfg, []schema.Tuple{mkTuple(2), mkTuple(1)}, 1.0); err == nil {
		t.Fatal("unsorted build accepted")
	}
	// Duplicate keys.
	if _, err := Build(h.cfg, []schema.Tuple{mkTuple(1), mkTuple(1)}, 1.0); err == nil {
		t.Fatal("duplicate build accepted")
	}
	// Bad fill.
	if _, err := Build(h.cfg, nil, 0); err == nil {
		t.Fatal("zero fill accepted")
	}
	// Wrong column type.
	bad := mkTuple(1)
	bad.Values[2] = schema.Str("not a float")
	if _, err := Build(h.cfg, []schema.Tuple{bad}, 1.0); err == nil {
		t.Fatal("mistyped tuple accepted")
	}
}

// TestConfigRefusesSchemeZero: a tree — built or new — needs a public
// key of a known scheme; scheme 0, the retired per-node rsa scheme's
// number, is refused.
func TestConfigRefusesSchemeZero(t *testing.T) {
	h := newHarness(t, 20, 1024)
	pub := *h.cfg.Pub
	pub.Scheme = 0
	cfg := h.cfg
	cfg.Pub = &pub
	if _, err := Build(cfg, []schema.Tuple{mkTuple(1)}, 1.0); err == nil {
		t.Error("Build accepted a scheme-0 key")
	}
	if _, err := New(cfg); err == nil {
		t.Error("New accepted a scheme-0 key")
	}
}

func TestSearch(t *testing.T) {
	h := newHarness(t, 200, 1024)
	st, found, err := search(h.tree, schema.Int64(57))
	if err != nil || !found {
		t.Fatalf("Search(57): found=%v err=%v", found, err)
	}
	if !st.Tuple.Values[0].Equal(schema.Int64(57)) {
		t.Fatalf("wrong tuple: %v", st.Tuple)
	}
	// The stored digests are the tuple's: its column commitment in the
	// heap record, its tuple digest in the leaf.
	digests, ut, err := tupleDigests(h.tree.acc, h.tree.sch, st.Tuple)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Digests, digests) {
		t.Fatalf("column commitment %x, want %x", st.Digests, digests)
	}
	if !mustTupleDigest(t, h, 57).Equal(ut) {
		t.Fatal("leaf tuple digest is not the tuple's")
	}
	if _, found, _ := search(h.tree, schema.Int64(9999)); found {
		t.Fatal("found a key that does not exist")
	}
}

// mustTupleDigest digs the tuple digest out of the leaf for key i.
func mustTupleDigest(t *testing.T, h *harness, i int) digest.Value {
	t.Helper()
	kb := schema.Int64(int64(i)).KeyBytes()
	pid := h.tree.Root()
	for {
		pt, err := h.tree.pageType(pid)
		if err != nil {
			t.Fatal(err)
		}
		if pt == storage.PageVBLeaf {
			n, err := h.tree.fetchLeaf(pid)
			if err != nil {
				t.Fatal(err)
			}
			j := n.search(kb)
			if j >= len(n.keys) || compare(n.keys[j], kb) != 0 {
				t.Fatalf("key %d not in leaf", i)
			}
			return n.digests[j]
		}
		n, err := h.tree.fetchInternal(pid)
		if err != nil {
			t.Fatal(err)
		}
		pid = n.children[n.childIndex(kb)]
	}
}

func TestScanAll(t *testing.T) {
	h := newHarness(t, 150, 1024)
	all, err := liveView(t, h.tree).ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 150 {
		t.Fatalf("ScanAll = %d tuples, want 150", len(all))
	}
	for i, st := range all {
		if !st.Tuple.Values[0].Equal(schema.Int64(int64(i))) {
			t.Fatalf("position %d holds key %v", i, st.Tuple.Values[0])
		}
	}
}

func TestRangeQueryVerifies(t *testing.T) {
	h := newHarness(t, 500, 1024)
	cases := []struct {
		name   string
		lo, hi *schema.Datum
		want   int
	}{
		{"mid range", i64(100), i64(199), 100},
		{"single tuple", i64(42), i64(42), 1},
		{"full table", nil, nil, 500},
		{"prefix", nil, i64(9), 10},
		{"suffix", i64(490), nil, 10},
		{"within one leaf", i64(10), i64(12), 3},
		{"empty range", i64(700), i64(800), 0},
		{"span two leaves", i64(18), i64(25), 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rs, w := h.query(t, Query{Lo: c.lo, Hi: c.hi})
			if len(rs.Tuples) != c.want {
				t.Fatalf("got %d tuples, want %d", len(rs.Tuples), c.want)
			}
			h.mustVerify(t, rs, w)
		})
	}
}

func TestProjectionVerifies(t *testing.T) {
	h := newHarness(t, 300, 1024)
	rs, w := h.query(t, Query{Lo: i64(50), Hi: i64(80), Project: []string{"id", "amount"}})
	if len(rs.Tuples) != 31 {
		t.Fatalf("got %d tuples", len(rs.Tuples))
	}
	if len(rs.Columns) != 2 {
		t.Fatalf("columns = %v", rs.Columns)
	}
	// 2 filtered attributes per tuple.
	if w.NumDP() != 31*2 {
		t.Fatalf("DP size = %d, want 62", w.NumDP())
	}
	h.mustVerify(t, rs, w)

	// Projection excluding the key column still verifies (keys ride
	// along); the key column has no attribute digest, so it costs none.
	rs2, w2 := h.query(t, Query{Lo: i64(50), Hi: i64(60), Project: []string{"customer"}})
	if w2.NumDP() != 11*2 {
		t.Fatalf("DP size = %d, want 22", w2.NumDP())
	}
	h.mustVerify(t, rs2, w2)
}

func TestProjectionValidation(t *testing.T) {
	h := newHarness(t, 50, 1024)
	if _, _, err := runQuery(h.tree, h.key, Query{Project: []string{"ghost"}}); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, _, err := runQuery(h.tree, h.key, Query{Project: []string{}}); err == nil {
		t.Fatal("empty projection accepted")
	}
	if _, _, err := runQuery(h.tree, h.key, Query{Project: []string{"id", "id"}}); err == nil {
		t.Fatal("duplicate projection accepted")
	}
	if _, _, err := runQuery(h.tree, h.key, Query{Lo: i64(10), Hi: i64(5)}); err == nil {
		t.Fatal("inverted range accepted")
	}
}

func TestEmptyResultVerifies(t *testing.T) {
	h := newHarness(t, 200, 1024)
	// A key range beyond the data.
	rs2, w2 := h.query(t, Query{Lo: i64(1000), Hi: i64(2000)})
	if len(rs2.Tuples) != 0 {
		t.Fatal("expected empty result")
	}
	h.mustVerify(t, rs2, w2)
}

func TestEmptyTreeQuery(t *testing.T) {
	h := newHarness(t, 0, 1024)
	rs, w := h.query(t, Query{})
	if len(rs.Tuples) != 0 {
		t.Fatal("expected empty result from empty tree")
	}
	h.mustVerify(t, rs, w)
}

func TestVOSizeIndependentOfTableSize(t *testing.T) {
	// The paper's headline claim: for a fixed result size, the VO does not
	// grow with the database. A proof from the root grows by the in-node
	// proofs of the levels a bigger table adds, a few digests each — not
	// in proportion to the table.
	sizes := []int{200, 2000}
	var digests []int
	for _, n := range sizes {
		h := newHarness(t, n, 1024)
		_, w := h.query(t, Query{Lo: i64(50), Hi: i64(99)})
		digests = append(digests, w.NumDigests())
	}
	// Allow a small wobble from boundary alignment, but not log-growth
	// proportional to the extra levels.
	if digests[1] > digests[0]*2 {
		t.Fatalf("VO grew with table size: %v", digests)
	}
}

func TestTamperedValueRejected(t *testing.T) {
	h := newHarness(t, 300, 1024)
	rs, w := h.query(t, Query{Lo: i64(10), Hi: i64(40)})
	rs.Tuples[5].Values[2] = schema.Float64(999999) // inflate an amount
	if err := h.ver.Verify(rs, w); err == nil {
		t.Fatal("tampered value accepted")
	}
}

func TestSpuriousTupleRejected(t *testing.T) {
	h := newHarness(t, 300, 1024)
	rs, w := h.query(t, Query{Lo: i64(10), Hi: i64(40)})
	// Inject a plausible but fake tuple.
	fake := mkTuple(35)
	fake.Values[0] = schema.Int64(3500)
	rs.Keys = append(rs.Keys, schema.Int64(3500))
	rs.Tuples = append(rs.Tuples, fake)
	if err := h.ver.Verify(rs, w); err == nil {
		t.Fatal("spurious tuple accepted")
	}
}

func TestDroppedTupleRejected(t *testing.T) {
	h := newHarness(t, 300, 1024)
	rs, w := h.query(t, Query{Lo: i64(10), Hi: i64(40)})
	rs.Keys = rs.Keys[:len(rs.Keys)-1]
	rs.Tuples = rs.Tuples[:len(rs.Tuples)-1]
	if err := h.ver.Verify(rs, w); err == nil {
		t.Fatal("dropped tuple accepted")
	}
}

func TestForgedVORejected(t *testing.T) {
	h := newHarness(t, 300, 1024)
	rs, w := h.query(t, Query{Lo: i64(10), Hi: i64(40)})
	if w.NumDS() == 0 {
		t.Skip("no DS entries to tamper with")
	}
	// Flip a byte in a D_S signature.
	w.DSDigest(0)[3] ^= 0xFF
	if err := h.ver.Verify(rs, w); err == nil {
		t.Fatal("forged DS signature accepted")
	}
}

func TestSwappedDigestRejected(t *testing.T) {
	h := newHarness(t, 300, 1024)
	// Every VO proves from the root, so a top digest from another version
	// of the tree is the one to swap in: an answer from before an insert,
	// presented under the root digest — and then also the root signature —
	// of the version after it.
	rs1, w1 := h.query(t, Query{Lo: i64(10), Hi: i64(10)})
	if err := h.tree.Insert(mkTuple(5000)); err != nil {
		t.Fatal(err)
	}
	_, w2 := h.query(t, Query{Lo: i64(100), Hi: i64(240)})
	if w1.TopDigest.Equal(w2.TopDigest) {
		t.Fatal("test setup: expected distinct root digests")
	}
	w1.TopDigest = w2.TopDigest
	if err := h.ver.Verify(rs1, w1); err == nil {
		t.Fatal("replayed top digest accepted")
	}
	w1.RootSig = w2.RootSig
	if err := h.ver.Verify(rs1, w1); err == nil {
		t.Fatal("replayed top digest and root signature accepted")
	}
}

func TestReorderedResultRejected(t *testing.T) {
	// The tree commits to its rows in key order, so an answer whose rows
	// are swapped recomputes another root. (The paper's commutative
	// product could not tell; a product of unsigned digests is what let
	// an edge rebalance it.)
	h := newHarness(t, 300, 1024)
	rs, w := h.query(t, Query{Lo: i64(10), Hi: i64(20)})
	rs.Keys[0], rs.Keys[1] = rs.Keys[1], rs.Keys[0]
	rs.Tuples[0], rs.Tuples[1] = rs.Tuples[1], rs.Tuples[0]
	if err := h.ver.Verify(rs, w); err == nil {
		t.Fatal("reordered result accepted")
	}
}

func TestWrongTableRejected(t *testing.T) {
	h := newHarness(t, 100, 1024)
	rs, w := h.query(t, Query{Lo: i64(10), Hi: i64(20)})
	rs.Table = "other"
	if err := h.ver.Verify(rs, w); err == nil {
		t.Fatal("cross-table replay accepted")
	}
}

func TestInsertMaintainsDigests(t *testing.T) {
	h := newHarness(t, 120, 1024)
	// Insert enough out-of-order tuples to force leaf and internal splits.
	for _, i := range []int{500, 130, 125, 600, 123, 124, 126, 127, 128, 129, 550, 560, 570} {
		if err := h.tree.Insert(mkTuple(i)); err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
	}
	// Every range query over the new state must verify.
	for _, r := range [][2]int{{0, 700}, {120, 131}, {490, 610}, {0, 50}} {
		rs, w := h.query(t, Query{Lo: i64(r[0]), Hi: i64(r[1])})
		h.mustVerify(t, rs, w)
	}
	if _, found, _ := search(h.tree, schema.Int64(560)); !found {
		t.Fatal("inserted tuple missing")
	}
}

func TestInsertDuplicateRejected(t *testing.T) {
	h := newHarness(t, 50, 1024)
	if err := h.tree.Insert(mkTuple(25)); err != ErrDuplicateKey {
		t.Fatalf("duplicate insert: %v", err)
	}
	// The failed insert must not corrupt digests.
	rs, w := h.query(t, Query{})
	h.mustVerify(t, rs, w)
}

func TestInsertManySplitsVerify(t *testing.T) {
	h := newHarness(t, 0, 1024)
	for i := 0; i < 300; i++ {
		// Interleaved order to exercise splits at both ends.
		k := (i*7 + 3) % 1000
		if _, found, _ := search(h.tree, schema.Int64(int64(k))); found {
			continue
		}
		if err := h.tree.Insert(mkTuple(k)); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	rs, w := h.query(t, Query{})
	h.mustVerify(t, rs, w)
	if h.tree.Height() < 2 {
		t.Fatal("expected splits to grow the tree")
	}
}

func TestDeleteMaintainsDigests(t *testing.T) {
	h := newHarness(t, 300, 1024)
	if err := h.tree.Delete(schema.Int64(150)); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := search(h.tree, schema.Int64(150)); found {
		t.Fatal("deleted key still present")
	}
	if err := h.tree.Delete(schema.Int64(150)); err != ErrKeyNotFound {
		t.Fatalf("double delete: %v", err)
	}
	rs, w := h.query(t, Query{Lo: i64(140), Hi: i64(160)})
	if len(rs.Tuples) != 20 {
		t.Fatalf("got %d tuples, want 20", len(rs.Tuples))
	}
	h.mustVerify(t, rs, w)
}

func TestDeleteRangeMaintainsDigests(t *testing.T) {
	h := newHarness(t, 400, 1024)
	n, err := h.tree.DeleteRange(i64(100), i64(299))
	if err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Fatalf("deleted %d, want 200", n)
	}
	rs, w := h.query(t, Query{})
	if len(rs.Tuples) != 200 {
		t.Fatalf("remaining %d, want 200", len(rs.Tuples))
	}
	h.mustVerify(t, rs, w)
	// Queries straddling the deleted region verify too.
	rs2, w2 := h.query(t, Query{Lo: i64(50), Hi: i64(350)})
	if len(rs2.Tuples) != 101 {
		t.Fatalf("straddling query got %d, want 101", len(rs2.Tuples))
	}
	h.mustVerify(t, rs2, w2)
}

func TestDeleteEverything(t *testing.T) {
	h := newHarness(t, 150, 1024)
	n, err := h.tree.DeleteRange(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 150 {
		t.Fatalf("deleted %d, want 150", n)
	}
	if h.tree.Height() != 1 {
		t.Fatalf("height after full delete = %d", h.tree.Height())
	}
	rs, w := h.query(t, Query{})
	if len(rs.Tuples) != 0 {
		t.Fatal("tuples remain after full delete")
	}
	h.mustVerify(t, rs, w)
	// Tree must accept new inserts.
	if err := h.tree.Insert(mkTuple(7)); err != nil {
		t.Fatal(err)
	}
	rs2, w2 := h.query(t, Query{})
	if len(rs2.Tuples) != 1 {
		t.Fatal("insert after full delete missing")
	}
	h.mustVerify(t, rs2, w2)
}

func TestInterleavedUpdatesAndQueries(t *testing.T) {
	h := newHarness(t, 200, 1024)
	for round := 0; round < 10; round++ {
		base := 1000 + round*10
		for i := 0; i < 5; i++ {
			if err := h.tree.Insert(mkTuple(base + i)); err != nil {
				t.Fatalf("round %d insert: %v", round, err)
			}
		}
		if _, err := h.tree.DeleteRange(i64(round*15), i64(round*15+4)); err != nil {
			t.Fatalf("round %d delete: %v", round, err)
		}
		rs, w := h.query(t, Query{})
		h.mustVerify(t, rs, w)
	}
}

// TestUpdatesWithLockingProtocol: an insert and a range delete,
// serialised by the tree's write lock alone (the tree takes none of
// §3.4's page locks), leave a tree whose answers verify. CI runs it
// under -race beside TestConcurrentQueriesDuringUpdates.
func TestUpdatesWithLockingProtocol(t *testing.T) {
	h := newHarness(t, 200, 1024)
	if err := h.tree.Insert(mkTuple(777)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.tree.DeleteRange(i64(20), i64(40)); err != nil {
		t.Fatal(err)
	}
	rs, w := h.query(t, Query{Lo: i64(0), Hi: i64(100)})
	h.mustVerify(t, rs, w)
}

// TestReadOnlyEdgeReplica: an edge reads the tree's pages through a View
// of the anchor it was shipped — no key, and no write to make — and its
// answers verify under the central's key.
func TestReadOnlyEdgeReplica(t *testing.T) {
	h := newHarness(t, 100, 1024)
	st := TableState{Root: h.tree.Root(), Height: h.tree.Height(), RootSig: h.rootSig()}
	edge, err := st.ViewOver(h.cfg.Pool, h.cfg.Schema, h.cfg.Acc, &sig.PublicKey{Version: h.key.Public().Version})
	if err != nil {
		t.Fatal(err)
	}
	edge.now = h.tree.now
	rs, w, err := edge.RunQuery(context.Background(), Query{Lo: i64(10), Hi: i64(30)})
	if err != nil {
		t.Fatalf("edge query: %v", err)
	}
	h.mustVerify(t, rs, w)
	if n, root, err := edge.Audit(); err != nil || n != 100 || !root.Equal(h.tree.RootDigest()) {
		t.Fatalf("edge audit: %d tuples, root %x, %v; want 100 at %x", n, root, err, h.tree.RootDigest())
	}
}

// TestViewOverValidation: a view needs a root page, at least one level, a
// root signature, and its pages, schema, accumulator and key.
func TestViewOverValidation(t *testing.T) {
	h := newHarness(t, 10, 1024)
	good := TableState{Root: h.tree.Root(), Height: h.tree.Height(), RootSig: h.rootSig()}
	bp, sch, acc, pub := h.cfg.Pool, h.cfg.Schema, h.cfg.Acc, h.cfg.Pub
	if _, err := good.ViewOver(bp, sch, acc, pub); err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]TableState{
		"invalid root":     {Root: storage.InvalidPageID, Height: 1, RootSig: good.RootSig},
		"zero height":      {Root: good.Root, Height: 0, RootSig: good.RootSig},
		"missing root sig": {Root: good.Root, Height: good.Height},
	} {
		if _, err := st.ViewOver(bp, sch, acc, pub); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := good.ViewOver(nil, sch, acc, pub); err == nil {
		t.Error("a view without pages accepted")
	}
	if _, err := good.ViewOver(bp, sch, acc, nil); err == nil {
		t.Error("a view without a key accepted")
	}
}

func TestFanOutFormulas(t *testing.T) {
	// VB-tree fan-out must be below the B-tree's for equal key length
	// (paper Figure 8) and shrink as keys grow.
	prev := 1 << 30
	for _, kl := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		f := MaxInternalFanOut(4096, kl, 16)
		if f < 2 {
			t.Fatalf("fan-out %d at key length %d", f, kl)
		}
		if f > prev {
			t.Fatalf("fan-out grew at key length %d", kl)
		}
		prev = f
	}
	if MaxLeafEntries(4096, 8, 16) <= 0 {
		t.Fatal("leaf capacity must be positive")
	}
}

func TestVerifierRejectsMalformedInputs(t *testing.T) {
	h := newHarness(t, 50, 1024)
	rs, w := h.query(t, Query{Lo: i64(5), Hi: i64(10)})

	if err := h.ver.Verify(nil, w); err == nil {
		t.Fatal("nil result accepted")
	}
	if err := h.ver.Verify(rs, nil); err == nil {
		t.Fatal("nil VO accepted")
	}
	bad := *w
	bad.TopLevel = 0
	if err := h.ver.Verify(rs, &bad); err == nil {
		t.Fatal("zero top level accepted")
	}
	bad2 := *w
	bad2.DP = w.TopDigest.Clone()
	if err := h.ver.Verify(rs, &bad2); err == nil {
		t.Fatal("DP count mismatch accepted")
	}
	bad3 := *w
	if bad3.NumDS() > 0 {
		bad3.DS = bad3.DS[len(bad3.DSDigest(0)):]
		if err := h.ver.Verify(rs, &bad3); err == nil {
			t.Fatal("a proof one digest short accepted")
		}
	}
	rs2 := *rs
	rs2.Columns = []string{"id", "ghost", "amount", "notes"}
	if err := h.ver.Verify(&rs2, w); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestKeyVersionEnforced(t *testing.T) {
	h := newHarness(t, 50, 1024)
	rs, w := h.query(t, Query{Lo: i64(5), Hi: i64(10)})

	// Registry-based verifier with an expired key version.
	reg := sig.NewRegistry()
	expired := h.key.Public()
	expired.Version = 0
	expired.NotAfter = 1_600_000_000 // before the VO timestamp
	reg.Put(expired)
	ver := &verify.Verifier{Keys: reg, Acc: h.tree.Accumulator(), Schema: h.tree.Schema(),
		Now: func() int64 { return 1_700_000_000 }}
	if err := ver.Verify(rs, w); err == nil {
		t.Fatal("expired key version accepted")
	}
	// Valid window accepts.
	fresh := h.key.Public()
	fresh.Version = 0
	fresh.NotBefore = 1_600_000_000
	reg.Put(fresh)
	if err := ver.Verify(rs, w); err != nil {
		t.Fatalf("valid key version rejected: %v", err)
	}
}

func TestAuditCleanTree(t *testing.T) {
	h := newHarness(t, 200, 1024)
	n, err := audit(h.tree)
	if err != nil {
		t.Fatalf("Audit of clean tree: %v", err)
	}
	if n != 200 {
		t.Fatalf("audited %d tuples, want 200", n)
	}
	// Audit still passes after updates.
	if err := h.tree.Insert(mkTuple(999)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.tree.DeleteRange(i64(10), i64(20)); err != nil {
		t.Fatal(err)
	}
	if n, err := audit(h.tree); err != nil || n != 190 {
		t.Fatalf("Audit after updates: n=%d err=%v", n, err)
	}
}

func TestAuditDetectsHeapTampering(t *testing.T) {
	h := newHarness(t, 100, 1024)
	// Corrupt a stored tuple's bytes behind the tree's back, as a hacked
	// edge with disk access would.
	st, found, err := search(h.tree, schema.Int64(42))
	if err != nil || !found {
		t.Fatal("setup: tuple 42 missing")
	}
	st.Tuple.Values[2] = schema.Float64(-1)
	// Re-encode and overwrite the heap record in place.
	kb := schema.Int64(42).KeyBytes()
	pid := h.tree.Root()
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
		pid = n.children[n.childIndex(kb)]
	}
	leaf, err := h.tree.fetchLeaf(pid)
	if err != nil {
		t.Fatal(err)
	}
	j := leaf.search(kb)
	rid := leaf.rids[j]
	if err := h.cfg.Heap.Delete(rid); err != nil {
		t.Fatal(err)
	}
	// The tombstoned record makes the audit fail loudly (a missing tuple
	// is as bad as a modified one).
	if _, err := audit(h.tree); err == nil {
		t.Fatal("audit passed over a corrupted heap")
	}
}
