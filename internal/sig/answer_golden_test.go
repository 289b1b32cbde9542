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
// Under the per-node rsa scheme every digest on a page is a signature, so
// without a fixed key no two runs produce the same answer bytes.

// goldenView builds the table the goldens were captured over — 1,000
// seeded rows on 1 KB pages, then a 40-row batch, one row wider than a
// page (an overflow chain) and a 31-row delete — and returns a read view
// of it with a fixed clock and key version, and the key it is signed under.
func goldenView(t *testing.T, scheme sig.Scheme) (*vbtree.View, *schema.Schema, *sig.PublicKey) {
	t.Helper()
	p, _ := new(big.Int).SetString("f2f0784a0c48e633d2f89450354b24ed", 16)
	q, _ := new(big.Int).SetString("d0f54bc924a93ad2bab57919e5a39cc3", 16)
	k, err := sig.KeyFromPrimes(p, q).WithScheme(scheme)
	if err != nil {
		t.Fatal(err)
	}
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

// goldenAnswers holds, for every golden case, what a commit that put a
// length in front of every VO digest (captured at 679c42a, unchanged up
// to d5690c2) produced when run over goldenView: rows, D_S entries, and
// the length and SHA-256 of
// (&wire.ShardQueryResponse{Resp: {rs, w}, SignedMap: goldenMap}).Encode()
// — the layout parentBody still writes.
var goldenAnswers = []struct {
	name     string
	rows, ds int
	length   int
	sha256   string
}{
	{"rsa/point/anchor=true", 1, 31, 1567, "3d897c1490b499b3d5e8a930ea3446555ef237e3ad42602843d9b11e2159559d"},
	{"rsa/point/anchor=false", 1, 13, 901, "fce0bb951494a3bf11bc0d9968e7f1e65e87792659021db879e1c4d38b8f413c"},
	{"rsa/range256-3of10/anchor=true", 256, 24, 79897, "f7a56716c5a0a5ab2dd4392b6985a0a7be00f1219fd26272b9f56faf8bf8b2c4"},
	{"rsa/range256-3of10/anchor=false", 256, 24, 79897, "f7a56716c5a0a5ab2dd4392b6985a0a7be00f1219fd26272b9f56faf8bf8b2c4"},
	{"rsa/full-projection/anchor=true", 64, 19, 15676, "4f3b6675fb94e4d7591099aa90abbd2f847e5edf968509a16d9d039b6e07c5c9"},
	{"rsa/full-projection/anchor=false", 64, 15, 15528, "4e415c50ef9ef678440e97a468b6d3c680eb38ee2d4f15b546f916513e34dbea"},
	{"rsa/filtered-gaps/anchor=true", 23, 231, 15792, "b6b7c9829cb443a1e0c825507fae854f98673646542f62a60eab24d026b30f5a"},
	{"rsa/filtered-gaps/anchor=false", 23, 231, 15792, "b6b7c9829cb443a1e0c825507fae854f98673646542f62a60eab24d026b30f5a"},
	{"rsa/empty/anchor=true", 0, 5, 346, "95a9999fe775e7ae9d7dffc791a8ddfa15a9c1cdfec6745140eb7ee100bb79c2"},
	{"rsa/empty/anchor=false", 0, 10, 531, "f2e35294d076ae19dc72025c71a82ab1ab7dd153da2d44a79b4bad8a5309ab83"},
	{"rsa/open-ended/anchor=true", 81, 20, 26129, "aa2888293677f3d6ad2b618b9ab853e4ffb2dc9387293e8b25be5186997e94c4"},
	{"rsa/open-ended/anchor=false", 81, 16, 25981, "a55fa91362d82ff7231eb6618d8bd595d80b6b528b5c888605ca1c2ab0b411ef"},
	{"rsa/empty-open-lo/anchor=true", 0, 5, 374, "b0b178f8e8a00da7b5c076ee720c568b043959d3da34a6175e352fcfe2591abb"},
	{"rsa/empty-open-lo/anchor=false", 0, 14, 707, "09e1e8b62ffc02820c2fc2db6981d66302cd866d7866480c87b290b37d8b79ea"},
	{"rsa/strict-bounds/anchor=true", 18, 22, 7001, "6ae90ca6a0d0c73ed717153718232b97dce6171679d7f050103224db72cd36b8"},
	{"rsa/strict-bounds/anchor=false", 18, 18, 6853, "f67f08f385ee1ca9e60a4ccc3d74679a47fb5c2fe9273e9a0dead527e2402097"},
	{"rsa/overflow-record/anchor=true", 7, 28, 3803, "ce689b17da2211064b329032ad5e41fe3515450fa5adf25d14210e40e5c4d8d3"},
	{"rsa/overflow-record/anchor=false", 7, 10, 3137, "2251ee9aad63a19712479fbf2763ec2c554aa5654b36a4dd255a5c9f43d92ec0"},
	{"rsa/filter-no-match/anchor=true", 0, 5, 374, "b0b178f8e8a00da7b5c076ee720c568b043959d3da34a6175e352fcfe2591abb"},
	{"rsa/filter-no-match/anchor=false", 0, 14, 707, "09e1e8b62ffc02820c2fc2db6981d66302cd866d7866480c87b290b37d8b79ea"},
}

// orderedGoldens pins what an edge sends for every golden case under
// rsa-merkle since the Merkle schemes commit by ordered hashes: rows, D_S
// digests, VO bytes, and the length and SHA-256 of the framed body (the
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

// parentBody is the ShardQueryResponse body the PARENT commit (d5690c2)
// wrote for an answer: the same framing and result set as today, and a VO
// whose every D_S and D_P digest sits behind its own 4-byte length, with
// no width in front of the runs. It is kept as the reference the goldens
// were captured with: an answer that transcodes to the parent's bytes
// carries the parent's content.
func parentBody(rs *vo.ResultSet, w *vo.VO, signedMap []byte) []byte {
	u32 := binary.BigEndian.AppendUint32
	lenPrefixed := func(dst, b []byte) []byte { return append(u32(dst, uint32(len(b))), b...) }

	pvo := u32(nil, w.KeyVersion)
	pvo = binary.BigEndian.AppendUint64(pvo, uint64(w.Timestamp))
	pvo = append(pvo, w.TopLevel)
	pvo = lenPrefixed(pvo, w.TopDigest)
	pvo = lenPrefixed(pvo, w.RootSig)
	pvo = u32(pvo, uint32(w.NumDS()))
	for i := 0; i < w.NumDS(); i++ {
		pvo = append(lenPrefixed(pvo, w.DSDigest(i)), w.DSLift(i))
	}
	pvo = u32(pvo, uint32(w.NumDP()))
	for i := 0; i < w.NumDP(); i++ {
		pvo = lenPrefixed(pvo, w.DPDigest(i))
	}

	answer := lenPrefixed(lenPrefixed(nil, rs.Encode(nil)), pvo)
	return lenPrefixed(lenPrefixed(nil, answer), signedMap)
}

// TestAnswerBytesMatchParentCommit pins what an edge puts on the wire for
// a query — built by vbtree.View.AppendAnswer straight from the pages,
// framed by wire.AppendShardQueryResponse — to what the parent commit
// sent, for both commitment modes, root-anchored and not: the same
// content, fewer bytes. The decoded answer, written back out in the
// parent's VO layout (parentBody), has the parent's length and SHA-256;
// the body itself is shorter by the 4-byte length the parent put in front
// of each D_S and D_P digest, less the 2-byte width that replaces them.
// The struct form RunQuery still returns must encode to the same bytes.
func TestAnswerBytesMatchParentCommit(t *testing.T) {
	ctx := context.Background()
	want, ordered := goldenAnswers, orderedGoldens
	for _, scheme := range []sig.Scheme{sig.SchemeRSAMerkle, sig.SchemeRSAFull} {
		v, sch, _ := goldenView(t, scheme)
		for _, c := range goldenCases(sch) {
			for _, anchor := range []bool{true, false} {
				name := fmt.Sprintf("%v/%s/anchor=%v", scheme, c.name, anchor)
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
				if scheme.Merkle() {
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
				} else {
					if len(want) == 0 || want[0].name != name {
						t.Fatalf("golden table out of step at %s", name)
					}
					g := want[0]
					want = want[1:]
					if len(rs.Tuples) != g.rows || w.NumDS() != g.ds || w.WireSize() != voBytes {
						t.Errorf("%s: %d rows, %d D_S entries in a %d-byte VO; parent commit %d rows, %d entries, AppendAnswer reported %d bytes",
							name, len(rs.Tuples), w.NumDS(), w.WireSize(), g.rows, g.ds, voBytes)
					}
					parent := parentBody(rs, w, resp.SignedMap)
					sum := sha256.Sum256(parent)
					if got := hex.EncodeToString(sum[:]); len(parent) != g.length || got != g.sha256 {
						t.Errorf("%s: in the parent's layout %d bytes, sha256 %s; parent commit: %d bytes, sha256 %s",
							name, len(parent), got, g.length, g.sha256)
					}
					if wantLen := g.length - 4*(w.NumDS()+w.NumDP()) + 2; len(body) != wantLen {
						t.Errorf("%s: %d bytes with %d D_S and %d D_P entries, want the parent's %d less 4 an entry plus 2 = %d",
							name, len(body), w.NumDS(), w.NumDP(), g.length, wantLen)
					}
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
	}
	if len(want)+len(ordered) != 0 {
		t.Fatalf("%d golden cases were not run", len(want)+len(ordered))
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
// digest once. What a VO takes beyond the formula is a lift per D_S
// entry (per-node rsa) or 4 bytes per node record and per run (ordered),
// the root signature of a Merkle scheme and 31 bytes of header; |D_P| is
// q_r·(N_C − Q_C) exactly. Under a Merkle scheme the model also predicts
// |D_S| itself from the envelope's entry counts and recomputed runs
// (costmodel.OrderedDSCount), and the VO's bytes from that
// (OrderedVOBytes); and verifying the answer hashes exactly what formula
// (10) restated for ordered commitments charges (OrderedVerifyHashes) —
// for the 256-row, 3-of-10 answer, 768 attribute hashes, 256 tuple
// hashes and the envelope's group and node hashes.
func TestVOBytesMatchFormula9(t *testing.T) {
	ctx := context.Background()
	for _, scheme := range []sig.Scheme{sig.SchemeRSAMerkle, sig.SchemeRSAFull} {
		v, sch, pub := goldenView(t, scheme)
		for _, c := range goldenCases(sch) {
			for _, anchor := range []bool{true, false} {
				name := fmt.Sprintf("%v/%s/anchor=%v", scheme, c.name, anchor)
				q, err := query.Compile(sch, c.spec)
				if err != nil {
					t.Fatal(err)
				}
				q.AnchorRoot = anchor
				rs, w, err := v.RunQuery(ctx, q)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				// Every digest of a scheme has one length: the accumulator's
				// under Merkle, the key's under per-node rsa.
				width := len(w.TopDigest)
				if w.NumDS()+w.NumDP() > 0 && int(w.Width) != width {
					t.Fatalf("%s: D_S and D_P digests have %d bytes, the top digest %d", name, w.Width, width)
				}
				digestBytes := (w.NumDP()+w.NumDS())*width + len(w.TopDigest)
				beside := w.NumDS() // a lift per D_S entry
				if scheme.Merkle() {
					beside = len(w.Nodes)
				}
				if got, want := w.WireSize(), digestBytes+beside+len(w.RootSig)+31; got != want || got != len(w.Encode(nil)) {
					t.Errorf("%s: VO of %d D_S and %d D_P entries is %d bytes (%d encoded), want %d",
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
				if !scheme.Merkle() {
					continue
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
}
