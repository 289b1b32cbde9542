package verify

import (
	"context"
	"errors"
	"testing"

	"edgeauth/internal/digest"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
	"edgeauth/internal/tamper"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/vo"
	"edgeauth/internal/workload"
)

// flatVerify is the verification equation evaluated in the order the
// package comment writes it — every digest lifted on its own, g applied
// lift times to each, then multiplied in — which is how verify computed
// it before the Horner fold. Everything before the combiner is shared
// (anchor), so the two can only differ in the arithmetic.
func flatVerify(v *Verifier, rs *vo.ResultSet, w *vo.VO) error {
	an, err := v.anchor(rs, w)
	if err != nil {
		return err
	}
	L := int(w.TopLevel)
	product := v.Acc.Identity()
	fold := func(u digest.Value, lift int) error {
		lifted, err := v.Acc.Lift(u, lift)
		if err == nil {
			product, err = v.Acc.Mul(product, lifted)
		}
		if err != nil {
			return errors.Join(ErrMalformed, err)
		}
		return nil
	}
	for j := range rs.Tuples {
		keyBytes := rs.Keys[j].KeyBytes()
		for i, ci := range an.colIdx {
			val := rs.Tuples[j].Values[i]
			if val.Type != v.Schema.Columns[ci].Type {
				return ErrMalformed
			}
			d := v.Acc.HashAttribute(rs.DB, rs.Table, v.Schema.Columns[ci].Name, keyBytes, val.CanonicalBytes())
			if err := fold(d, L+1); err != nil {
				return err
			}
		}
	}
	for i := 0; i < w.NumDP(); i++ {
		u, err := v.entryDigest(an.pub, w.DPDigest(i))
		if err != nil {
			return err
		}
		if err := fold(u, L+1); err != nil {
			return err
		}
	}
	for i := 0; i < w.NumDS(); i++ {
		lift := int(w.DSLift(i))
		if lift < 1 || lift > L {
			return ErrMalformed
		}
		u, err := v.entryDigest(an.pub, w.DSDigest(i))
		if err != nil {
			return err
		}
		if err := fold(u, lift); err != nil {
			return err
		}
	}
	if !product.Equal(an.topU) {
		return ErrVerification
	}
	return nil
}

// errorClass names the sentinel an outcome matches, "" for acceptance.
func errorClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrMalformed):
		return "malformed"
	case errors.Is(err, ErrBadSignature):
		return "bad-signature"
	case errors.Is(err, ErrKeyVersion):
		return "key-version"
	case errors.Is(err, ErrVerification):
		return "verification"
	default:
		return "other: " + err.Error()
	}
}

// builtTree is a real VB-tree over the workload table with a verifier
// for it. Small pages make a few hundred rows three levels deep.
type builtTree struct {
	tree *vbtree.Tree
	sch  *schema.Schema
	ver  *Verifier
}

func buildTree(t testing.TB, rows, pageSize int, scheme sig.Scheme, counters *digest.Counters) *builtTree {
	t.Helper()
	key, err := signer(t).WithScheme(scheme)
	if err != nil {
		t.Fatal(err)
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
	mem, err := storage.NewMemPager(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := storage.NewBufferPool(mem, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := storage.NewHeapFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := vbtree.Build(vbtree.Config{
		Pool: bp, Heap: heap, Schema: sch, Acc: digest.MustNew(digest.DefaultParams()),
		Signer: key, Pub: key.Public(), BuildParallelism: 2,
	}, tuples, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	p := digest.DefaultParams()
	p.Counters = counters
	return &builtTree{tree: tree, sch: sch, ver: &Verifier{Key: key.Public(), Acc: digest.MustNew(p), Schema: sch}}
}

func (b *builtTree) query(t testing.TB, lo, hi int64, project []string) (*vo.ResultSet, *vo.VO) {
	t.Helper()
	l, h := schema.Int64(lo), schema.Int64(hi)
	rs, w, err := b.tree.RunQuery(context.Background(), vbtree.Query{Lo: &l, Hi: &h, Project: project})
	if err != nil {
		t.Fatal(err)
	}
	return rs, w
}

// TestHornerAndFlatOrderAgree: across the whole tamper catalogue, under
// both commitment schemes, projected and not, evaluating the equation
// level by level accepts exactly what evaluating it digest by digest
// accepts, and rejects for the same reason.
func TestHornerAndFlatOrderAgree(t *testing.T) {
	honest := tamper.Attack{Name: "honest", Apply: func(*vo.ResultSet, *vo.VO) error { return nil }}
	maxLift := tamper.Attack{Name: "every-lift-255", Apply: func(_ *vo.ResultSet, w *vo.VO) error {
		w.TopLevel = 255
		for i := 0; i < w.NumDS(); i++ {
			w.SetDSLift(i, 255)
		}
		return nil
	}}
	for _, scheme := range []sig.Scheme{sig.SchemeRSAFull, sig.SchemeRSAMerkle} {
		b := buildTree(t, 300, 1024, scheme, nil)
		for _, project := range [][]string{nil, {"id", "cat"}} {
			for _, a := range append([]tamper.Attack{honest, maxLift}, tamper.All()...) {
				rs, w := b.query(t, 20, 80, project)
				if err := a.Apply(rs, w); err != nil {
					if errors.Is(err, tamper.ErrNotApplicable) {
						continue
					}
					t.Fatal(err)
				}
				horner, flat := errorClass(b.ver.Verify(rs, w)), errorClass(flatVerify(b.ver, rs, w))
				if horner != flat {
					t.Errorf("%v, project %v, %s: Horner order says %q, flat order says %q", scheme, project, a.Name, horner, flat)
				}
				if accepted := horner == ""; accepted != (a.Name == "honest") {
					t.Errorf("%v, project %v, %s: accepted = %v", scheme, project, a.Name, accepted)
				}
			}
		}
	}
}

// TestCombineOpsPerVO pins what a verification counts: one multiplication
// per digest (q_r·N_C attribute digests, computed or from D_P, plus |D_S|)
// and, for an envelope L levels tall, L+1 applications of g with L
// hand-downs between them. A VO that tags every entry with the largest
// lift the format can carry buys exactly that too — not 255 g's per
// digest.
func TestCombineOpsPerVO(t *testing.T) {
	var c digest.Counters
	b := buildTree(t, 300, 1024, sig.SchemeRSAMerkle, &c)
	for _, tc := range []struct {
		project []string
		hostile bool
	}{{nil, false}, {[]string{"id", "cat"}, false}, {[]string{"id", "cat"}, true}} {
		rs, w := b.query(t, 20, 80, tc.project)
		if tc.hostile {
			w.TopLevel = 255
			for i := 0; i < w.NumDS(); i++ {
				w.SetDSLift(i, 255)
			}
		}
		before := c.Snapshot()
		err := b.ver.Verify(rs, w)
		if honest := !tc.hostile; honest && err != nil || tc.hostile && !errors.Is(err, ErrVerification) {
			t.Fatalf("project %v, hostile %v: %v", tc.project, tc.hostile, err)
		}
		L := int(w.TopLevel)
		want := int64(len(rs.Tuples)*len(b.sch.Columns) + w.NumDS() + 2*L + 1)
		if got := c.Snapshot().Sub(before).CombineOps; got != want {
			t.Errorf("project %v, hostile %v: %d combine ops, want %d = %d·%d + |D_S| %d + 2·%d + 1",
				tc.project, tc.hostile, got, want, len(rs.Tuples), len(b.sch.Columns), w.NumDS(), L)
		}
	}
}

// TestMerkleRunsAreTheAccumulatorsWidth: a Merkle VO's D_S and D_P are
// folded where they lie, one width check for the whole VO. Runs of wider
// records — every digest followed by a byte the fold would not read —
// are refused, not folded on their leading bytes: each such VO would be
// another spelling of the honest one.
func TestMerkleRunsAreTheAccumulatorsWidth(t *testing.T) {
	b := buildTree(t, 300, 1024, sig.SchemeRSAMerkle, nil)
	rs, w := b.query(t, 20, 80, []string{"id", "cat"})
	if err := b.ver.Verify(rs, w); err != nil {
		t.Fatal(err)
	}
	padded := *w
	padded.DS, padded.DP = nil, nil
	for i := 0; i < w.NumDS(); i++ {
		padded.AppendDS(append(w.DSDigest(i).Clone(), 0), w.DSLift(i))
	}
	for i := 0; i < w.NumDP(); i++ {
		padded.AppendDP(append(w.DPDigest(i).Clone(), 0))
	}
	if err := b.ver.Verify(rs, &padded); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("runs of %d-byte records under a %d-byte accumulator: %v, want ErrBadSignature", padded.Width, b.ver.Acc.Len(), err)
	}
}

// BenchmarkVerifyRange256 is the read.range shape: 256 rows, 3 of 10
// columns returned, Merkle scheme, root signature already cached.
func BenchmarkVerifyRange256(b *testing.B) {
	bt := buildTree(b, 4096, 4096, sig.SchemeRSAMerkle, nil)
	rs, w := bt.query(b, 1000, 1255, workload.ProjectFirstN(bt.sch, 3))
	if len(rs.Tuples) != 256 {
		b.Fatalf("range returned %d rows, want 256", len(rs.Tuples))
	}
	if err := bt.ver.Verify(rs, w); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bt.ver.Verify(rs, w); err != nil {
			b.Fatal(err)
		}
	}
}
