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
// page (an overflow chain) and a 31-row delete — and returns a read view
// of it with a fixed clock and key version, and the rsa-merkle key it is
// signed under.
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
	v, err := vbtree.NewView(vbtree.ViewConfig{
		Pages: bp, HeapPages: heap.Pages(), Schema: sch, Acc: tree.Accumulator(), Pub: k.Public(), Now: now,
		Root: tree.Root(), Height: tree.Height(), RootSig: tree.RootSig(),
	})
	if err != nil {
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
// rsa-merkle since the tree commits by ordered hashes: rows, D_S digests,
// VO bytes, and the length and SHA-256 of the framed body (the
// ShardQueryResponse with goldenMap). The answer is anchored at the root
// whatever the query asks, so both anchor settings give the same bytes.
// Each line ends with what the parent commit (253a3c6) sent, which this
// layout cannot be transcoded to: its D_S count, VO bytes and body length.
// On these 1 KB pages a node holds about 20 entries, three in-node
// groups, so a point read's proof is 20 digests where the parent's was
// 42, and a 256-row range's 30 where it was 35; at the benchmark's 4 KB
// pages the in-node tree is what shrinks a point read's VO fivefold.
var orderedGoldens = []struct {
	name                             string
	rows, ds, vo                     int
	length                           int
	sha256                           string
	parentDS, parentVO, parentLength int // quoted, not compared
}{
	{"rsa-merkle/point/anchor=true", 1, 20, 423, 782, "7134f268caaf3508c9ddf1f899ea2f0f263bfd8e52612b9ab7bea21df1e51442", 42, 793, 1152},
	{"rsa-merkle/point/anchor=false", 1, 20, 423, 782, "7134f268caaf3508c9ddf1f899ea2f0f263bfd8e52612b9ab7bea21df1e51442", 42, 793, 1152},
	{"rsa-merkle/range256-3of10/anchor=true", 256, 30, 29375, 43811, "b9767eb2fd3fe6f7de586302b6b6e35f500cc2ff54dbba649e84d81ad0d94a3d", 35, 29346, 43782},
	{"rsa-merkle/range256-3of10/anchor=false", 256, 30, 29375, 43811, "b9767eb2fd3fe6f7de586302b6b6e35f500cc2ff54dbba649e84d81ad0d94a3d", 35, 29346, 43782},
	{"rsa-merkle/full-projection/anchor=true", 64, 25, 527, 15439, "4d69c48cb44bd37ecd0d16800215d21cbd6238cec77454e22b556d589eed4eef", 35, 674, 15586},
	{"rsa-merkle/full-projection/anchor=false", 64, 25, 527, 15439, "4d69c48cb44bd37ecd0d16800215d21cbd6238cec77454e22b556d589eed4eef", 35, 674, 15586},
	{"rsa-merkle/filtered-gaps/anchor=true", 23, 145, 5147, 6535, "6fc91f80b07175a05bf1153ea5da389fa8c7c5b615e1b69c7ff77d2ba78dd971", 268, 7211, 8599},
	{"rsa-merkle/filtered-gaps/anchor=false", 23, 145, 5147, 6535, "6fc91f80b07175a05bf1153ea5da389fa8c7c5b615e1b69c7ff77d2ba78dd971", 268, 7211, 8599},
	{"rsa-merkle/empty/anchor=true", 0, 3, 131, 231, "296268fa2c9ee946d66ccf7c32217d648777289d6903557732bbca4c75dd39e1", 3, 130, 230},
	{"rsa-merkle/empty/anchor=false", 0, 3, 131, 231, "296268fa2c9ee946d66ccf7c32217d648777289d6903557732bbca4c75dd39e1", 3, 130, 230},
	{"rsa-merkle/open-ended/anchor=true", 81, 6, 9303, 14219, "01f219505b5a7a7c9a07c65b07956674690b7f5c0f2fe21eac48c76c080c11f9", 6, 9253, 14169},
	{"rsa-merkle/open-ended/anchor=false", 81, 6, 9303, 14219, "01f219505b5a7a7c9a07c65b07956674690b7f5c0f2fe21eac48c76c080c11f9", 6, 9253, 14169},
	{"rsa-merkle/empty-open-lo/anchor=true", 0, 3, 131, 259, "28b6bc149c5a956788539c32a6c45886d408bb6e2deb536ee56e213fbcb3cb0e", 3, 130, 258},
	{"rsa-merkle/empty-open-lo/anchor=false", 0, 3, 131, 259, "28b6bc149c5a956788539c32a6c45886d408bb6e2deb536ee56e213fbcb3cb0e", 3, 130, 258},
	{"rsa-merkle/strict-bounds/anchor=true", 18, 19, 2735, 3677, "d3fb37141cd0bab903f90156edfafb71f865ff6f1509e903de6ab9330ee35167", 32, 2927, 3869},
	{"rsa-merkle/strict-bounds/anchor=false", 18, 19, 2735, 3677, "d3fb37141cd0bab903f90156edfafb71f865ff6f1509e903de6ab9330ee35167", 32, 2927, 3869},
	{"rsa-merkle/overflow-record/anchor=true", 7, 11, 1175, 1865, "8ae34ca59a49a4f0974130f2885a9437b6bb78a971383c93e1c09e2708117f8f", 19, 1298, 1988},
	{"rsa-merkle/overflow-record/anchor=false", 7, 11, 1175, 1865, "8ae34ca59a49a4f0974130f2885a9437b6bb78a971383c93e1c09e2708117f8f", 19, 1298, 1988},
	{"rsa-merkle/filter-no-match/anchor=true", 0, 3, 131, 259, "28b6bc149c5a956788539c32a6c45886d408bb6e2deb536ee56e213fbcb3cb0e", 3, 130, 258},
	{"rsa-merkle/filter-no-match/anchor=false", 0, 3, 131, 259, "28b6bc149c5a956788539c32a6c45886d408bb6e2deb536ee56e213fbcb3cb0e", 3, 130, 258},
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
// record and per run, the root signature and 31 bytes of header; |D_P| is
// q_r·(N_C − Q_C) exactly. The model also predicts |D_S| itself from the
// envelope's entry counts and recomputed runs (costmodel.OrderedDSCount),
// and the VO's bytes from that (OrderedVOBytes); and verifying the answer
// hashes exactly what formula (10) restated for ordered commitments
// charges (OrderedVerifyHashes) — for the 256-row, 3-of-10 answer, 768
// attribute hashes, 256 tuple hashes and the envelope's group and node
// hashes.
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
			if got := p.DPCount(len(rs.Tuples)); got != w.NumDP() {
				t.Errorf("%s: model predicts |D_P| = %d for %d rows of %d of %d columns, the VO carries %d",
					name, got, len(rs.Tuples), p.QC, p.NC, w.NumDP())
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
			if got, want := ctr.Snapshot(), p.OrderedVerifyHashes(len(rs.Tuples), env); got.HashOps != int64(want) || got.CombineOps != 0 {
				t.Errorf("%s: verifying hashed %d times and combined %d, formula (10) charges %d hashes and no combine",
					name, got.HashOps, got.CombineOps, want)
			}
		}
	}
}
