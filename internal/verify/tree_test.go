package verify

import (
	"context"
	"encoding/binary"
	"strings"
	"testing"

	"edgeauth/internal/costmodel"
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
	var rs *vo.ResultSet
	var w *vo.VO
	err := b.tree.Read(true, func(v *vbtree.View) (err error) {
		rs, w, err = v.RunQuery(context.Background(), vbtree.Query{Lo: &l, Hi: &h, Project: project})
		return err
	})
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
// columns returned, root signature already cached. It reports what one
// answer costs beside the time: its VO's bytes and the hashes verifying
// it takes (vbtree.BenchmarkAnswerRange256 is the edge's side).
func BenchmarkVerifyRange256(b *testing.B) {
	var c digest.Counters
	bt := buildTree(b, 4096, 4096, &c)
	rs, w := bt.query(b, 1000, 1255, workload.ProjectFirstN(bt.sch, 3))
	if len(rs.Tuples) != 256 {
		b.Fatalf("range returned %d rows, want 256", len(rs.Tuples))
	}
	if err := bt.ver.Verify(rs, w); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	before := c.Snapshot()
	for i := 0; i < b.N; i++ {
		if err := bt.ver.Verify(rs, w); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(w.WireSize()), "vo_bytes/op")
	b.ReportMetric(float64(c.Snapshot().Sub(before).HashOps)/float64(b.N), "hash_ops/op")
}

// TestEveryProjectionShipsItsColumnSiblings ties formula (9)'s D_P term
// for the deployed tree to real answers over all 2^10 − 1 projections of
// the benchmark's table: a row carries exactly the column proof
// costmodel.Projection.Siblings counts — never more than the N_C − Q_C
// digests a flat list would, 3 for {id, cat, a2}, none for a full
// projection — and verifying the answer hashes exactly what
// costmodel.OrderedVerifyHashes charges.
func TestEveryProjectionShipsItsColumnSiblings(t *testing.T) {
	var c digest.Counters
	b := buildTree(t, 300, 1024, &c)
	nc := len(b.sch.Columns)
	for mask := 1; mask < 1<<nc; mask++ {
		var project []string
		var cols []int
		for ci := nc - 1; ci >= 0; ci-- { // the answer's column order is not the schema's
			if mask&(1<<ci) != 0 {
				project = append(project, b.sch.Columns[ci].Name)
				cols = append(cols, ci)
			}
		}
		rs, w := b.query(t, 20, 24, project)
		pr := costmodel.ProjectionOf(nc, b.sch.Key, cols)
		if got, want := w.NumDP(), costmodel.OrderedDPCount(len(rs.Tuples), pr); got != want || got > len(rs.Tuples)*(nc-len(cols)) {
			t.Fatalf("projection %v: %d D_P digests for %d rows, the model counts %d", project, got, len(rs.Tuples), want)
		}
		before := c.Snapshot()
		if err := b.ver.Verify(rs, w); err != nil {
			t.Fatalf("projection %v: %v", project, err)
		}
		env := envelopeOf(t, w)
		if got, want := c.Snapshot().Sub(before).HashOps, costmodel.OrderedVerifyHashes(len(rs.Tuples), pr, env); got != int64(want) {
			t.Fatalf("projection %v: verifying hashed %d times, the model charges %d", project, got, want)
		}
	}
	for project, want := range map[string]int{"id,cat,a2": 3, "id,cat,a2,a3,a4,a5,a6,a7,a8,a9": 0, "id": 3, "cat": 4, "a9": 4, "cat,a3,a5,a7,a9": 4} {
		rs, w := b.query(t, 20, 24, strings.Split(project, ","))
		if got := w.NumDP(); got != want*len(rs.Tuples) {
			t.Errorf("{%s}: %d D_P digests for %d rows, want %d a row", project, got, len(rs.Tuples), want)
		}
	}
}

// envelopeOf reads a VO's node records as the cost model takes them.
func envelopeOf(t *testing.T, w *vo.VO) []costmodel.OrderedNode {
	t.Helper()
	var env []costmodel.OrderedNode
	for b := w.Nodes; len(b) > 0; {
		count, runs, rest, err := vo.NodeRecord(b)
		if err != nil {
			t.Fatal(err)
		}
		nd := costmodel.OrderedNode{N: count}
		for ; len(runs) > 0; runs = runs[digest.RunSize:] {
			start := int(binary.BigEndian.Uint16(runs))
			nd.Runs = append(nd.Runs, [2]int{start, start + int(binary.BigEndian.Uint16(runs[2:]))})
		}
		env, b = append(env, nd), rest
	}
	return env
}
