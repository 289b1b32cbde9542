package sig_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/big"
	"strings"
	"testing"

	"edgeauth/internal/costmodel"
	"edgeauth/internal/digest"
	"edgeauth/internal/query"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/verify"
	"edgeauth/internal/vo"
	"edgeauth/internal/wire"
	"edgeauth/internal/workload"
)

// The byte-identity goldens of the verified-read path live here, beside
// the signature package, because they need the one thing only its tests
// can make: a signing key that is the same on every run (KeyFromPrimes).
// The root signature every VO carries is made with it, so without a fixed
// key no two runs produce the same answer bytes.

// goldenView builds the table the goldens were captured over — 1,000
// seeded rows on 1 KB pages, then a 40-row batch, one row wider than a
// page (an overflow chain) and a 31-row delete — and returns a signed
// read view of it with a fixed clock and key version, and the rsa-merkle
// key it is signed under.
func goldenView(t *testing.T) (*vbtree.View, *schema.Schema, *sig.PublicKey) {
	t.Helper()
	p, _ := new(big.Int).SetString("f2f0784a0c48e633d2f89450354b24ed", 16)
	q, _ := new(big.Int).SetString("d0f54bc924a93ad2bab57919e5a39cc3", 16)
	k := sig.KeyFromPrimes(p, q)
	k.SetValidity(3, 0, 0)
	spec := workload.DefaultSpec(1000)
	spec.Seed = 18
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
	bp, err := storage.NewBufferPool(mem, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := storage.NewHeapFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	now := func() int64 { return 1_700_000_000 }
	tree, err := vbtree.Build(vbtree.Config{
		Pool: bp, Heap: heap, Schema: sch, Acc: digest.MustNew(digest.DefaultParams()),
		Signer: k, Pub: k.Public(), Now: now, BuildParallelism: 2,
	}, tuples, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	row := func(id int64, width int) schema.Tuple {
		vals := make([]schema.Datum, len(sch.Columns))
		vals[0] = schema.Int64(id)
		vals[1] = schema.Str(workload.CategoryName(int(id % 20)))
		for c := 2; c < len(vals); c++ {
			vals[c] = schema.Str(strings.Repeat(fmt.Sprintf("%c", 'a'+c), width))
		}
		return schema.Tuple{Values: vals}
	}
	var rows []schema.Tuple
	for i := int64(0); i < 40; i++ {
		rows = append(rows, row(5000+i*3, 20))
	}
	_, errs, err := tree.InsertBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range errs {
		if e != nil {
			t.Fatal(e)
		}
	}
	// One record wider than a page: its heap cell is an overflow chain.
	if err := tree.Insert(row(7000, 300)); err != nil {
		t.Fatal(err)
	}
	lo, hi := schema.Int64(100), schema.Int64(130)
	if n, err := tree.DeleteRange(&lo, &hi); err != nil || n != 31 {
		t.Fatalf("DeleteRange removed %d, %v", n, err)
	}
	if tree.Height() != 3 {
		t.Fatalf("height %d, want 3", tree.Height())
	}
	// The view keeps the tree's fixed clock. Nothing writes the tree after
	// this, so the view stays valid once Read returns.
	var v *vbtree.View
	if err := tree.Read(true, func(rv *vbtree.View) error { v = rv; return nil }); err != nil {
		t.Fatal(err)
	}
	return v, sch, k.Public()
}

type goldenCase struct {
	name string
	spec query.Spec
}

func goldenCases(sch *schema.Schema) []goldenCase {
	i := func(v int64) schema.Datum { return schema.Int64(v) }
	rng := func(lo, hi int64) []query.Predicate {
		return []query.Predicate{{Column: "id", Op: query.OpGE, Value: i(lo)}, {Column: "id", Op: query.OpLE, Value: i(hi)}}
	}
	three := workload.ProjectFirstN(sch, 3)
	return []goldenCase{
		{"point", query.Spec{Predicates: []query.Predicate{{Column: "id", Op: query.OpEQ, Value: i(500)}}}},
		{"range256-3of10", query.Spec{Predicates: rng(300, 555), Project: three}},
		{"full-projection", query.Spec{Predicates: rng(140, 203)}},
		{"filtered-gaps", query.Spec{Predicates: append(rng(200, 600), query.Predicate{Column: "cat", Op: query.OpEQ, Value: schema.Str("cat-07")}), Project: three}},
		{"empty", query.Spec{Predicates: rng(2000, 3000), Project: three}},
		{"open-ended", query.Spec{Predicates: []query.Predicate{{Column: "id", Op: query.OpGE, Value: i(960)}}, Project: three}},
		{"empty-open-lo", query.Spec{Predicates: []query.Predicate{{Column: "id", Op: query.OpLE, Value: i(-5)}}}},
		{"strict-bounds", query.Spec{Predicates: []query.Predicate{{Column: "id", Op: query.OpGT, Value: i(90)}, {Column: "id", Op: query.OpLT, Value: i(140)}}, Project: []string{"a5", "cat"}}},
		{"overflow-record", query.Spec{Predicates: rng(5100, 8000), Project: []string{"a2", "id"}}},
		{"filter-no-match", query.Spec{Predicates: append(rng(10, 400), query.Predicate{Column: "cat", Op: query.OpEQ, Value: schema.Str("nope")})}},
	}
}

var goldenMap = []byte("golden signed map bytes (opaque to the wire layer)")

// orderedGoldens pins what an edge sends for every golden case under
// rsa-merkle since a tuple commits to its columns through a column tree:
// rows, D_S digests, VO bytes, and the length and SHA-256 of the framed
// body (the ShardQueryResponse with goldenMap). The answer is anchored at
// the root whatever the query asks, so both anchor settings give the same
// bytes. Each line ends with what the parent commit (b43dc9b), which
// hashed a tuple over a flat list of all its attribute digests, sent: its
// VO bytes and body length (its D_S was the same; the node commitment did
// not change). A projection's rows now ship one digest per column
// subtree they leave out instead of one per column: the 256-row 3-of-10
// answer 3 a row instead of 7, 16,384 bytes less; a full projection, and
// an answer of no rows, ship what they did.
var orderedGoldens = []struct {
	name                 string
	rows, ds, vo         int
	length               int
	sha256               string
	parentVO, parentBody int // quoted, not compared
}{
	{"rsa-merkle/point/anchor=true", 1, 20, 423, 782, "2d07e1c5e2eaafd082334888dcbc144e374e91e84b43aabdeb56f8ac512effea", 423, 782},
	{"rsa-merkle/point/anchor=false", 1, 20, 423, 782, "2d07e1c5e2eaafd082334888dcbc144e374e91e84b43aabdeb56f8ac512effea", 423, 782},
	{"rsa-merkle/range256-3of10/anchor=true", 256, 30, 12991, 27427, "e5270f1fcfda71630947dd723f6046dec2f7756b35a5f0e4c5f269492a5dcd30", 29375, 43811},
	{"rsa-merkle/range256-3of10/anchor=false", 256, 30, 12991, 27427, "e5270f1fcfda71630947dd723f6046dec2f7756b35a5f0e4c5f269492a5dcd30", 29375, 43811},
	{"rsa-merkle/full-projection/anchor=true", 64, 25, 527, 15439, "a69cb078d81e8cc566a218a885bfab9de241d1e866e9fa6dd73a508fe3cb7d70", 527, 15439},
	{"rsa-merkle/full-projection/anchor=false", 64, 25, 527, 15439, "a69cb078d81e8cc566a218a885bfab9de241d1e866e9fa6dd73a508fe3cb7d70", 527, 15439},
	{"rsa-merkle/filtered-gaps/anchor=true", 23, 145, 3675, 5063, "af2a1938a521e1e5267927223fb02684548b3fafb55ad9a13709285d84c59721", 5147, 6535},
	{"rsa-merkle/filtered-gaps/anchor=false", 23, 145, 3675, 5063, "af2a1938a521e1e5267927223fb02684548b3fafb55ad9a13709285d84c59721", 5147, 6535},
	{"rsa-merkle/empty/anchor=true", 0, 3, 131, 231, "53ae4ffcf3a064a6965fcbff2633c51d367fdd476d2f9d7c504bab6d8eb7aaaf", 131, 231},
	{"rsa-merkle/empty/anchor=false", 0, 3, 131, 231, "53ae4ffcf3a064a6965fcbff2633c51d367fdd476d2f9d7c504bab6d8eb7aaaf", 131, 231},
	{"rsa-merkle/open-ended/anchor=true", 81, 6, 4119, 9035, "cbbe3a8cfe2fba1ad6fe9fe65a010836e5da623eb5bc8482140fcca46c861185", 9303, 14219},
	{"rsa-merkle/open-ended/anchor=false", 81, 6, 4119, 9035, "cbbe3a8cfe2fba1ad6fe9fe65a010836e5da623eb5bc8482140fcca46c861185", 9303, 14219},
	{"rsa-merkle/empty-open-lo/anchor=true", 0, 3, 131, 259, "030518ca9c64547953e65117f04f53a3034fdd3ec62e6acc9d960aacdbd13666", 131, 259},
	{"rsa-merkle/empty-open-lo/anchor=false", 0, 3, 131, 259, "030518ca9c64547953e65117f04f53a3034fdd3ec62e6acc9d960aacdbd13666", 131, 259},
	{"rsa-merkle/strict-bounds/anchor=true", 18, 19, 1871, 2813, "593b2037149a9a53a477576f18a87c7de69037efddcff05f0eadf01cddd07f6c", 2735, 3677},
	{"rsa-merkle/strict-bounds/anchor=false", 18, 19, 1871, 2813, "593b2037149a9a53a477576f18a87c7de69037efddcff05f0eadf01cddd07f6c", 2735, 3677},
	{"rsa-merkle/overflow-record/anchor=true", 7, 11, 727, 1417, "1697a14df8c6e061fcddf65cb6fb03a88aa29e54acbd4cf12fe1e173248dbb8e", 1175, 1865},
	{"rsa-merkle/overflow-record/anchor=false", 7, 11, 727, 1417, "1697a14df8c6e061fcddf65cb6fb03a88aa29e54acbd4cf12fe1e173248dbb8e", 1175, 1865},
	{"rsa-merkle/filter-no-match/anchor=true", 0, 3, 131, 259, "030518ca9c64547953e65117f04f53a3034fdd3ec62e6acc9d960aacdbd13666", 131, 259},
	{"rsa-merkle/filter-no-match/anchor=false", 0, 3, 131, 259, "030518ca9c64547953e65117f04f53a3034fdd3ec62e6acc9d960aacdbd13666", 131, 259},
}

// TestAnswerBytesMatchParentCommit pins what an edge puts on the wire for
// a query — built by vbtree.View.AppendAnswer straight from the pages,
// framed by wire.AppendShardQueryResponse — to the bytes pinned in
// orderedGoldens, root-anchored and not. The struct form RunQuery still
// returns must encode to the same bytes.
func TestAnswerBytesMatchParentCommit(t *testing.T) {
	ctx := context.Background()
	ordered := orderedGoldens
	v, sch, _ := goldenView(t)
	for _, c := range goldenCases(sch) {
		for _, anchor := range []bool{true, false} {
			name := fmt.Sprintf("%v/%s/anchor=%v", sig.SchemeRSAMerkle, c.name, anchor)
			q, err := query.Compile(sch, c.spec)
			if err != nil {
				t.Fatal(err)
			}
			q.AnchorRoot = anchor
			voBytes := 0
			body, err := wire.AppendShardQueryResponse(nil, func(dst []byte) (out, signedMap []byte, err error) {
				out, voBytes, err = v.AppendAnswer(ctx, q, dst)
				return out, goldenMap, err
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			resp, err := wire.DecodeShardQueryResponse(body)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rs, w := resp.Resp.Result, resp.Resp.VO
			if len(ordered) == 0 || ordered[0].name != name {
				t.Fatalf("ordered golden table out of step at %s", name)
			}
			g := ordered[0]
			ordered = ordered[1:]
			sum := sha256.Sum256(body)
			if got := hex.EncodeToString(sum[:]); len(rs.Tuples) != g.rows || w.NumDS() != g.ds || voBytes != g.vo ||
				w.WireSize() != voBytes || len(body) != g.length || got != g.sha256 {
				t.Errorf("%s: %d rows, %d D_S digests, %d-byte VO (%d reported), %d-byte body, sha256 %s; pinned %d, %d, %d, %d, %s",
					name, len(rs.Tuples), w.NumDS(), w.WireSize(), voBytes, len(body), got, g.rows, g.ds, g.vo, g.length, g.sha256)
			}
			rs, w, err = v.RunQuery(ctx, q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			structForm := (&wire.ShardQueryResponse{Resp: &wire.QueryResponse{Result: rs, VO: w}, SignedMap: goldenMap}).Encode()
			if string(structForm) != string(body) {
				t.Errorf("%s: RunQuery's structs encode to different bytes than AppendAnswer wrote", name)
			}
		}
	}
	if len(ordered) != 0 {
		t.Fatalf("%d golden cases were not run", len(ordered))
	}
}

// envelope reads an ordered VO's node records as the cost model takes
// them: each node's entry count and recomputed runs.
func envelope(w *vo.VO) []costmodel.OrderedNode {
	var env []costmodel.OrderedNode
	for b := w.Nodes; len(b) > 0; {
		count, runs, rest, err := vo.NodeRecord(b)
		if err != nil {
			panic(err)
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

// TestVOBytesMatchFormula9 ties the paper's communication cost to the
// wire, over every golden shape: formula (9) charges a VO
// (|D_P| + |D_S| + 1)·D bytes of digests, and those are the digest bytes
// a VO carries — each D_S and D_P digest at the VO's one width, the top
// digest once. What a VO takes beyond the formula is 4 bytes per node
// record and per run, the root signature and 31 bytes of header. |D_P|
// is q_r times the projection's column proof (costmodel.OrderedDPCount),
// never more than the paper's q_r·(N_C − Q_C) (DPCount). The model also
// predicts |D_S| itself from the envelope's entry counts and recomputed
// runs (costmodel.OrderedDSCount), and the VO's bytes from both
// (OrderedVOBytes); and verifying the answer hashes exactly what formula
// (10) restated for ordered commitments charges (OrderedVerifyHashes) —
// for the 256-row, 3-of-10 answer, 512 attribute hashes, 256 column group
// hashes, 256 tuple hashes and the envelope's group and node hashes.
func TestVOBytesMatchFormula9(t *testing.T) {
	ctx := context.Background()
	v, sch, pub := goldenView(t)
	for _, c := range goldenCases(sch) {
		for _, anchor := range []bool{true, false} {
			name := fmt.Sprintf("%v/%s/anchor=%v", sig.SchemeRSAMerkle, c.name, anchor)
			q, err := query.Compile(sch, c.spec)
			if err != nil {
				t.Fatal(err)
			}
			q.AnchorRoot = anchor
			rs, w, err := v.RunQuery(ctx, q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// Every digest has one length, the top digest's.
			width := len(w.TopDigest)
			if width != digest.Size || w.CheckRuns() != nil {
				t.Fatalf("%s: a %d-byte top digest, runs %v", name, width, w.CheckRuns())
			}
			digestBytes := (w.NumDP()+w.NumDS())*width + len(w.TopDigest)
			if got, want := w.WireSize(), digestBytes+len(w.Nodes)+len(w.RootSig)+31; got != want || got != len(w.Encode(nil)) {
				t.Errorf("%s: VO of %d D_S and %d D_P digests is %d bytes (%d encoded), want %d",
					name, w.NumDS(), w.NumDP(), got, len(w.Encode(nil)), want)
			}
			p := costmodel.Default()
			p.D, p.NC, p.QC = width, len(sch.Columns), len(rs.Columns)
			var cols []int
			for _, c := range rs.Columns {
				cols = append(cols, sch.ColumnIndex(c))
			}
			pr := costmodel.ProjectionOf(len(sch.Columns), sch.Key, cols)
			if got := costmodel.OrderedDPCount(len(rs.Tuples), pr); got != w.NumDP() || got > p.DPCount(len(rs.Tuples)) {
				t.Errorf("%s: model predicts |D_P| = %d for %d rows of %d of %d columns (at most %d), the VO carries %d",
					name, got, len(rs.Tuples), p.QC, p.NC, p.DPCount(len(rs.Tuples)), w.NumDP())
			}
			if got := p.VODigestBytes(w.NumDP(), w.NumDS()); got != digestBytes {
				t.Errorf("%s: formula (9) charges %d digest bytes, the VO carries %d", name, got, digestBytes)
			}
			env := envelope(w)
			if got := costmodel.OrderedDSCount(env); got != w.NumDS() {
				t.Errorf("%s: model predicts |D_S| = %d over %d envelope nodes, the VO carries %d", name, got, len(env), w.NumDS())
			}
			if got := p.OrderedVOBytes(env, w.NumDP(), len(w.RootSig)); got != w.WireSize() {
				t.Errorf("%s: model predicts a %d-byte VO, the VO is %d bytes", name, got, w.WireSize())
			}
			ctr := new(digest.Counters)
			ver := &verify.Verifier{Key: pub, Acc: digest.MustNew(digest.Params{Counters: ctr}), Schema: sch, MaxClockSkew: -1}
			if err := ver.Verify(rs, w); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got, want := ctr.Snapshot(), costmodel.OrderedVerifyHashes(len(rs.Tuples), pr, env); got.HashOps != int64(want) || got.CombineOps != 0 {
				t.Errorf("%s: verifying hashed %d times and combined %d, formula (10) charges %d hashes and no combine",
					name, got.HashOps, got.CombineOps, want)
			}
		}
	}
}
