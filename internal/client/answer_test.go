package client

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"testing"

	"edgeauth/internal/israce"
	"edgeauth/internal/query"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/wire"
)

// deployBenchShaped is the benchmark's deployment in small: rsa-merkle,
// one shard of 1,000 rows.
func deployBenchShaped(t *testing.T) *deployment {
	return deployScheme(t, 1000, sig.SchemeRSAMerkle, 1)
}

// range256 is the benchmark's read.range shape: 256 rows, 3 of 10 columns.
func range256(lo int64) ([]query.Predicate, []string) {
	return []query.Predicate{
		{Column: "id", Op: query.OpGE, Value: schema.Int64(lo)},
		{Column: "id", Op: query.OpLE, Value: schema.Int64(lo + 255)},
	}, []string{"id", "cat", "a2"}
}

// TestAnswerDecodeAndVerifyAllocationBudget: from the received frame body
// to the decoded structs the client allocates a handful of objects —
// the structs are views of the frame — and verifying them hashes every
// attribute through one reused buffer. (Before the structs were views,
// decoding this answer cost ~2,400 objects and verifying it ~1,600 more.)
//
// Objects are not the whole cost: bytes are what the collector has to
// clear and, where they hold pointers, scan. Decoding the answer
// allocates 90,832 bytes, pinned. It was 142,032 while D_S and D_P
// decoded to a slice header per digest — 1,792 D_P digests at 24 bytes
// and 170 D_S entries at 32, about 48 KB of pointers per answer — where
// they are now the two runs of the frame they arrived in. Decoding builds
// no accumulator, so the inline limbs below left that figure where it was.
//
// The result set and the VO are one allocation, which is what holds the
// figure where it was once the VO grew its node records.
//
// Decoding, checking the map and verifying costs 19 objects, pinned. It
// was 25 while the scheme committed by a product: verifying this VO ran
// one digest.Acc per level, L+1 = 4 of them. An ordered commitment is
// recomputed node by node with every preimage on the stack, into scratch
// the verification owns (29 before the Acc held its limbs inline).
func TestAnswerDecodeAndVerifyAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	ctx := context.Background()
	d := deployBenchShaped(t)
	preds, project := range256(300)
	req := &wire.ShardQueryRequest{Query: &wire.QueryRequest{Table: "items", Predicates: preds, Project: project}}
	body, err := d.client.edge.Call(ctx, wire.MsgShardQueryReq, req.Encode(), wire.MsgShardQueryResp, true)
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.client.verifier(ctx, "items")
	if err != nil {
		t.Fatal(err)
	}
	verify := func() {
		resp, err := wire.DecodeShardQueryResponse(body)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(resp.Resp.Result.Tuples); n != 256 {
			t.Fatalf("%d rows, want 256", n)
		}
		sm, err := v.VerifySignedMap(resp.SignedMap, "items")
		if err != nil {
			t.Fatal(err)
		}
		if err := v.VerifyAnchored(resp.Resp.Result, resp.Resp.VO, sm.Map.Shards[0].RootDigest); err != nil {
			t.Fatal(err)
		}
	}
	verify() // check the map and warm the signature cache, as the second answer of a session finds them

	decode := testing.AllocsPerRun(100, func() {
		if _, err := wire.DecodeShardQueryResponse(body); err != nil {
			t.Fatal(err)
		}
	})
	if decode > 40 {
		t.Errorf("decoding the answer: %.0f allocations, budget 40", decode)
	}
	// The least of three passes: anything else the deployment allocates
	// meanwhile can only add to a pass.
	decodeBytes := uint64(math.MaxUint64)
	for pass := 0; pass < 3; pass++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := wire.DecodeShardQueryResponse(body); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		decodeBytes = min(decodeBytes, after.TotalAlloc-before.TotalAlloc)
	}
	if decodeBytes != 90_832 {
		t.Errorf("decoding the answer: %d bytes allocated, want 90,832", decodeBytes)
	}
	whole := testing.AllocsPerRun(100, verify)
	if whole != 19 {
		t.Errorf("decoding and verifying the answer: %.0f allocations, want 19", whole)
	}
	t.Logf("%d-byte answer: %.0f allocations (%d bytes) to decode, %.0f to decode, check the map and verify", len(body), decode, decodeBytes, whole)
}

// TestQueryResultSurvivesLaterCalls: a QueryResult is made of views of
// the frame it arrived in, and that frame belongs to the result — later
// traffic on the same connection, larger and smaller, never lands in it.
func TestQueryResultSurvivesLaterCalls(t *testing.T) {
	ctx := context.Background()
	d := deployBenchShaped(t)
	preds, project := range256(100)
	first, err := d.client.Query(ctx, "items", preds, project)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func() []byte {
		out := first.Result.Encode(nil)
		for _, w := range first.ShardVOs {
			out = w.Encode(out)
		}
		return out
	}
	want := snapshot()
	for i := int64(0); i < 20; i++ {
		p, proj := range256(i * 37)
		if i%3 == 0 {
			proj = nil // every column: a larger frame
		}
		if i%4 == 0 {
			p = p[:1] // open-ended: larger still
		}
		if _, err := d.client.Query(ctx, "items", p, proj); err != nil {
			t.Fatal(err)
		}
		if _, err := d.client.EdgeTables(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(snapshot(), want) {
		t.Fatal("a verified result changed under later calls on the same connection")
	}
	if len(first.Result.Tuples) != 256 || first.Result.Tuples[255].Values[0].I != 355 {
		t.Fatalf("result no longer reads as rows 100..355")
	}
}
