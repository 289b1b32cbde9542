package verify

import (
	"context"
	"testing"

	"edgeauth/internal/digest"
	"edgeauth/internal/schema"
	"edgeauth/internal/storage"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/vo"
	"edgeauth/internal/workload"
)

// builtTree is a real VB-tree over the workload table with a verifier
// for it. Small pages make a few hundred rows three levels deep.
type builtTree struct {
	tree *vbtree.Tree
	sch  *schema.Schema
	ver  *Verifier
}

func buildTree(t testing.TB, rows, pageSize int, counters *digest.Counters) *builtTree {
	t.Helper()
	key := signer(t)
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

// TestMerkleRunsAreTheAccumulatorsWidth: a VO's D_S and D_P are read
// where they lie, as runs of the accumulator's width. Runs of wider
// records — every digest followed by a byte the verifier would not read,
// as the runs of a scheme with wider digests would be — are refused, not
// read on their leading bytes: each such VO would be another spelling of
// the honest one.
func TestMerkleRunsAreTheAccumulatorsWidth(t *testing.T) {
	b := buildTree(t, 300, 1024, nil)
	rs, w := b.query(t, 20, 80, []string{"id", "cat"})
	if err := b.ver.Verify(rs, w); err != nil {
		t.Fatal(err)
	}
	padded := *w
	padded.DS, padded.DP = nil, nil
	for i := 0; i < w.NumDS(); i++ {
		padded.DS = append(append(padded.DS, w.DSDigest(i)...), 0)
	}
	for i := 0; i < w.NumDP(); i++ {
		padded.DP = append(append(padded.DP, w.DPDigest(i)...), 0)
	}
	if err := b.ver.Verify(rs, &padded); err == nil {
		t.Fatalf("runs of %d-byte records under a %d-byte accumulator accepted", b.ver.Acc.Len()+1, b.ver.Acc.Len())
	}
}

// BenchmarkVerifyRange256 is the read.range shape: 256 rows, 3 of 10
// columns returned, root signature already cached.
func BenchmarkVerifyRange256(b *testing.B) {
	bt := buildTree(b, 4096, 4096, nil)
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
