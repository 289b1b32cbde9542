package tamper

import (
	"context"
	"errors"
	"sync"
	"testing"

	"edgeauth/internal/digest"
	"edgeauth/internal/query"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/verify"
	"edgeauth/internal/vo"
	"edgeauth/internal/workload"
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

type harness struct {
	tree *vbtree.Tree
	key  *sig.PrivateKey
	ver  *verify.Verifier
}

func newHarness(t *testing.T, rows int) *harness {
	return newSchemeHarness(t, rows, sig.SchemeRSAMerkle)
}

func newSchemeHarness(t *testing.T, rows int, scheme sig.Scheme) *harness {
	t.Helper()
	// rsa-merkle trees share the one generated key; Ed25519 keys cost
	// nothing.
	k := signer(t)
	if scheme == sig.SchemeEd25519 {
		k = sig.MustGenerate(scheme, 0)
	}
	spec := workload.DefaultSpec(rows)
	sch, err := spec.Schema()
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := spec.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	mem, _ := storage.NewMemPager(1024)
	bp, _ := storage.NewBufferPool(mem, 8192)
	heap, _ := storage.NewHeapFile(bp)
	acc := digest.MustNew(digest.DefaultParams())
	tree, err := vbtree.Build(vbtree.Config{
		Pool: bp, Heap: heap, Schema: sch, Acc: acc,
		Pub: k.Public(),
	}, tuples, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{
		tree: tree,
		key:  k,
		ver:  &verify.Verifier{Keys: trusted(k.Public()), Acc: acc, Schema: sch},
	}
}

// freshSpec is the query freshResponse answers: ids 20 to 80, all
// columns or id and cat.
func freshSpec(projected bool) query.Spec {
	spec := query.Spec{Predicates: []query.Predicate{
		{Column: "id", Op: query.OpGE, Value: schema.Int64(20)},
		{Column: "id", Op: query.OpLE, Value: schema.Int64(80)},
	}}
	if projected {
		spec.Project = []string{"id", "cat"}
	}
	return spec
}

func (h *harness) freshResponse(t *testing.T, projected bool) (*vo.ResultSet, *vo.VO) {
	t.Helper()
	q, err := query.Compile(h.ver.Schema, freshSpec(projected))
	if err != nil {
		t.Fatal(err)
	}
	rs, w, err := h.query(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ver.Verify(rs, w); err != nil {
		t.Fatalf("baseline verification failed: %v", err)
	}
	return rs, w
}

// query answers q as an edge would: from a view of the tree's pages,
// with the root digest signed.
func (h *harness) query(q vbtree.Query) (rs *vo.ResultSet, w *vo.VO, err error) {
	err = h.tree.Read(func(v *vbtree.View) error {
		rs, w, err = v.RunQuery(context.Background(), q)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	w.RootSig, err = h.key.Sign(w.TopDigest)
	return rs, w, err
}

// accepts is a client's verdict on rs as the answer to freshSpec: the
// VO, then the answer's columns and the query itself (query.Finish).
func (h *harness) accepts(t *testing.T, rs *vo.ResultSet, w *vo.VO, projected bool) bool {
	t.Helper()
	spec := freshSpec(projected)
	q, err := query.Compile(h.ver.Schema, spec)
	if err != nil {
		t.Fatal(err)
	}
	return h.ver.Verify(rs, w) == nil && query.Finish(h.ver.Schema, spec, q, rs) == nil
}

func TestCatalogueIsValid(t *testing.T) {
	if err := Validate(All()); err != nil {
		t.Fatal(err)
	}
	if err := Validate([]Attack{{Name: ""}}); err == nil {
		t.Fatal("malformed attack accepted")
	}
	if err := Validate([]Attack{MutateValue(), MutateValue()}); err == nil {
		t.Fatal("duplicate attack accepted")
	}
	// Attack names are a flat namespace across all three catalogues —
	// edged -tamper resolves by name with no qualifier.
	seen := map[string]bool{}
	for _, a := range All() {
		seen[a.Name] = true
	}
	for _, a := range MapAttacks() {
		if a.Name == "" || a.Apply == nil {
			t.Fatalf("malformed map attack %+v", a)
		}
		if seen[a.Name] {
			t.Fatalf("map attack %q collides with another catalogue entry", a.Name)
		}
		seen[a.Name] = true
	}
	for _, a := range PeerAttacks() {
		if a.Name == "" {
			t.Fatalf("malformed peer attack %+v", a)
		}
		if seen[a.Name] {
			t.Fatalf("peer attack %q collides with another catalogue entry", a.Name)
		}
		seen[a.Name] = true
	}
}

func TestEveryAttackIsDetected(t *testing.T) {
	h := newHarness(t, 300)
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			// Projected responses give attacks like swap-projection-digest
			// something to work with.
			rs, w := h.freshResponse(t, true)
			if err := a.Apply(rs, w); err != nil {
				if errors.Is(err, ErrNotApplicable) {
					t.Skipf("attack not applicable: %v", err)
				}
				t.Fatal(err)
			}
			if h.accepts(t, rs, w, true) {
				t.Fatalf("attack %q went undetected", a.Name)
			}
		})
	}
}

// TestEveryAttackIsDetectedUnderEd25519 runs the catalogue against the
// projected answer of an Ed25519 tree: no attack relies on the scheme.
func TestEveryAttackIsDetectedUnderEd25519(t *testing.T) {
	h := newSchemeHarness(t, 300, sig.SchemeEd25519)
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			rs, w := h.freshResponse(t, true)
			if err := a.Apply(rs, w); err != nil {
				if errors.Is(err, ErrNotApplicable) {
					t.Skipf("attack not applicable: %v", err)
				}
				t.Fatal(err)
			}
			if h.accepts(t, rs, w, true) {
				t.Fatalf("attack %q went undetected", a.Name)
			}
		})
	}
}

// TestCompensateDigest: the forgery the tree admitted while it committed
// by a product of raw digests — rewrite a returned value, rebalance a D_P
// digest of the same row, a D_S sibling, or another row's D_P digest by
// h(old)·h(new)⁻¹ — is rejected under every scheme, anchored at the
// signed root or not: an ordered commitment changes with the value at
// every level up to the root. (Commit 253a3c6 accepted all three.)
func TestCompensateDigest(t *testing.T) {
	for _, scheme := range []sig.Scheme{sig.SchemeRSAMerkle, sig.SchemeEd25519} {
		t.Run(scheme.String(), func(t *testing.T) {
			h := newSchemeHarness(t, 300, scheme)
			for _, a := range []Attack{CompensateDigest(), CompensateSibling(), CompensateAcrossRows()} {
				rs, w := h.freshResponse(t, true)
				before, root := rs.Tuples[0].String(), w.TopDigest.Clone()
				if err := a.Apply(rs, w); err != nil {
					t.Fatalf("%s: %v", a.Name, err)
				}
				if rs.Tuples[0].String() == before {
					t.Fatalf("%s rewrote nothing", a.Name)
				}
				if err := h.ver.Verify(rs, w); err == nil {
					t.Errorf("%s: under %v a client accepts tuple 0 rewritten from %v to %v", a.Name, scheme, before, rs.Tuples[0])
				}
				if err := h.ver.VerifyAnchored(rs, w, root); err == nil {
					t.Errorf("%s: VerifyAnchored accepts the rebalanced answer under %v", a.Name, scheme)
				}
			}
		})
	}
}

func TestEveryAttackIsDetectedUnprojected(t *testing.T) {
	h := newHarness(t, 300)
	for _, a := range All() {
		if a.Name == "swap-projection-digest" {
			continue // needs D_P, exercised in the projected variant
		}
		t.Run(a.Name, func(t *testing.T) {
			rs, w := h.freshResponse(t, false)
			if err := a.Apply(rs, w); err != nil {
				if errors.Is(err, ErrNotApplicable) {
					t.Skipf("attack not applicable: %v", err)
				}
				t.Fatal(err)
			}
			if h.accepts(t, rs, w, false) {
				t.Fatalf("attack %q went undetected", a.Name)
			}
		})
	}
}

func TestAttacksOnEmptyResultMostlyInapplicable(t *testing.T) {
	h := newHarness(t, 100)
	lo, hi := schema.Int64(5000), schema.Int64(6000)
	rs, w, err := h.query(vbtree.Query{Lo: &lo, Hi: &hi})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Attack{MutateValue(), DropTuple(), InjectTuple(), DuplicateTuple()} {
		if err := a.Apply(rs, w); !errors.Is(err, ErrNotApplicable) {
			t.Errorf("%s on empty result: %v, want ErrNotApplicable", a.Name, err)
		}
	}
	// The forged-digest attack still applies and is still caught.
	fa := ForgeTopDigest()
	if err := fa.Apply(rs, w); err != nil {
		t.Fatal(err)
	}
	if err := h.ver.Verify(rs, w); err == nil {
		t.Fatal("forged top digest on empty result went undetected")
	}
}

func TestStaleKeyReplayDetectedViaRegistry(t *testing.T) {
	h := newHarness(t, 100)
	rs, w := h.freshResponse(t, false)

	// A registry that knows version 0 (valid) and version 7 (expired
	// before the VO's timestamp).
	k := signer(t)
	reg := sig.NewRegistry()
	cur := k.Public()
	cur.Version = 0
	reg.Put(cur)
	old := k.Public()
	old.Version = 7
	old.NotAfter = 1 // expired in 1970
	reg.Put(old)
	ver := &verify.Verifier{Keys: reg, Acc: h.ver.Acc, Schema: h.ver.Schema}
	if err := ver.Verify(rs, w); err != nil {
		t.Fatalf("baseline with registry: %v", err)
	}
	if err := StaleKeyReplay(7).Apply(rs, w); err != nil {
		t.Fatal(err)
	}
	err := ver.Verify(rs, w)
	if !errors.Is(err, verify.ErrKeyVersion) {
		t.Fatalf("stale key replay: %v, want ErrKeyVersion", err)
	}
}

// TestRelabelKeyVersionMissesTheSignatureCache: the client has verified
// (and cached the signatures of) an answer under key version 0; the
// central rotates to version 1, a different key; the edge replays the old
// answer relabelled as version 1. The cached proofs were made under
// version 0 and must not vouch for it.
func TestRelabelKeyVersionMissesTheSignatureCache(t *testing.T) {
	h := newHarness(t, 100)
	rs, w := h.freshResponse(t, true)
	reg := sig.NewRegistry()
	reg.Put(signer(t).Public()) // version 0
	rotated := sig.MustGenerate(sig.SchemeRSAMerkle, 512).Public()
	rotated.Version = 1
	reg.Put(rotated)
	ver := &verify.Verifier{Keys: reg, Acc: h.ver.Acc, Schema: h.ver.Schema}
	if err := ver.Verify(rs, w); err != nil {
		t.Fatalf("baseline with registry: %v", err)
	}
	if err := RelabelKeyVersion(1).Apply(rs, w); err != nil {
		t.Fatal(err)
	}
	if err := ver.Verify(rs, w); !errors.Is(err, verify.ErrBadSignature) {
		t.Fatalf("relabelled answer: %v, want ErrBadSignature", err)
	}
	if err := RelabelKeyVersion(1).Apply(rs, w); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("relabel to the version already named: %v", err)
	}
}

// TestBackdateTimestampAttack pins the §3.4 freshness fix: the rewound
// timestamp was ACCEPTED under the old semantics (key validity resolved
// at the edge-supplied VO timestamp — emulated here by pinning the
// verifier clock to the attacker's timestamp, which is exactly what
// trusting it amounted to) and is REJECTED with ErrKeyVersion by the
// fixed client, which checks freshness against its own clock.
func TestBackdateTimestampAttack(t *testing.T) {
	h := newHarness(t, 100)
	rs, w := h.freshResponse(t, false)
	if err := BackdateTimestamp().Apply(rs, w); err != nil {
		t.Fatal(err)
	}

	legacy := &verify.Verifier{
		Keys: trusted(signer(t).Public()), Acc: h.ver.Acc, Schema: h.ver.Schema,
		Now: func() int64 { return w.Timestamp },
	}
	if err := legacy.Verify(rs, w); err != nil {
		t.Fatalf("old edge-clock semantics no longer accept the backdated VO (attack demo broken): %v", err)
	}

	if err := h.ver.Verify(rs, w); !errors.Is(err, verify.ErrKeyVersion) {
		t.Fatalf("backdated VO: %v, want ErrKeyVersion", err)
	}
}

func TestCrossTableReplaySkipsSameName(t *testing.T) {
	a := CrossTableReplay("items")
	rs := &vo.ResultSet{Table: "items"}
	if err := a.Apply(rs, &vo.VO{}); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("same-name replay: %v", err)
	}
}
