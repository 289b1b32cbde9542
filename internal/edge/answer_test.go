package edge

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"testing"

	"edgeauth/internal/central"
	"edgeauth/internal/israce"
	"edgeauth/internal/query"
	"edgeauth/internal/schema"
	"edgeauth/internal/storage"
	"edgeauth/internal/verify"
	"edgeauth/internal/wire"
	"edgeauth/internal/workload"
)

// rangeRequest is the benchmark's read.range shape: 256 rows, 3 of the
// 10 columns.
func rangeRequest(t *testing.T, lo, hi int64) []byte {
	t.Helper()
	sch, err := workload.DefaultSpec(1).Schema()
	if err != nil {
		t.Fatal(err)
	}
	return (&wire.ShardQueryRequest{Query: &wire.QueryRequest{
		Table: "items",
		Predicates: []query.Predicate{
			{Column: "id", Op: query.OpGE, Value: schema.Int64(lo)},
			{Column: "id", Op: query.OpLE, Value: schema.Int64(hi)},
		},
		Project: workload.ProjectFirstN(sch, 3),
	}}).Encode()
}

// merkleEdge is an edge bootstrapped from a one-shard rsa-merkle central
// on 4 KB pages (the benchmark's deployment, smaller).
func merkleEdge(t *testing.T, rows int) (*central.Server, *Server) {
	t.Helper()
	key := serverKey(t)
	srv, err := central.NewServerWithKey(central.Options{}, key)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	spec := workload.DefaultSpec(rows)
	sch, err := spec.Schema()
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := spec.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddTable(sch, tuples); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	eg := New(ln.Addr().String())
	t.Cleanup(func() { eg.Close() })
	if err := eg.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	return srv, eg
}

// TestShardAnswerAllocationBudget: from the request body to the response
// body, the edge allocates a fixed number of objects and a small fraction
// of the response in bytes — the answer is read in place on pinned pages
// and copied once, into the frame buffer the transport lends, and what
// the traversal collects on the way (vbtree's walkScratch) is recycled
// from one answer to the next. The count is deterministic, so it is
// pinned: 22. It was 25 while schema.Validate, which query.Compile runs
// on every request, found duplicate columns through a map: for the ten
// columns of this table that map cost its directory, its one table and
// the table's slot groups (3). It was 35 while each request built its
// own view of the snapshot — the View and its heap reader (2), the
// stand-in public key with its three big.Ints and the words of the
// shifted modulus (5), and the Merkle root recombined per answer: the
// accumulator, its limbs and the digest it returns (3); the published
// set now holds one view per pinned snapshot. (44 objects and 25 KB
// before the scratch was pooled.) Holding an accumulator's limbs inline
// left it at 22: answering builds no accumulator. A change that moves it
// says so here.
func TestShardAnswerAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	ctx := context.Background()
	srv, eg := merkleEdge(t, 1000)
	req := rangeRequest(t, 300, 555)
	frame := make([]byte, 0, 1<<16)

	answer := func() []byte {
		mt, resp, err := eg.dispatch(ctx, wire.MsgShardQueryReq, req, frame)
		if err != nil || mt != wire.MsgShardQueryResp {
			t.Fatalf("dispatch: %v, %v", mt, err)
		}
		return resp
	}
	resp := answer()
	if &resp[0] != &frame[:1][0] {
		t.Fatal("the response was not built in the buffer the transport lent")
	}
	dec, err := wire.DecodeShardQueryResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(dec.Resp.Result.Tuples); n != 256 {
		t.Fatalf("%d rows, want 256", n)
	}
	sch, _ := eg.Schema("items")
	sm, _ := eg.SignedShardMap("items")
	ver := &verify.Verifier{Key: srv.PublicKey(), Acc: srv.Accumulator(), Schema: sch}
	if err := ver.VerifyAnchored(dec.Resp.Result, dec.Resp.VO, sm.Map.Shards[0].RootDigest); err != nil {
		t.Fatal(err)
	}

	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() { answer() })
	if allocs != 22 {
		t.Errorf("%.0f allocations per answer, want 22", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		answer()
	}
	runtime.ReadMemStats(&after)
	per := int(after.TotalAlloc-before.TotalAlloc) / runs
	if per > len(resp)/8 {
		t.Errorf("%d bytes allocated per %d-byte answer, budget an eighth of the answer", per, len(resp))
	}
	t.Logf("%d-byte answer: %.0f allocations, %d bytes", len(resp), allocs, per)
}

// TestAnswerOutlivesItsSnapshot: an answer holds no reference to the
// pages it was read from. Both forms — the wire body and the structs
// RunShardQuery returns — are taken, then the rows they cover are
// deleted and the replica refreshed until the snapshot they came from has
// been released, superseded and swept, with recycled buffers poisoned. A
// slice still pointing into a page would now read 0xDB.
func TestAnswerOutlivesItsSnapshot(t *testing.T) {
	defer storage.SetPoisonOnRecycle(storage.SetPoisonOnRecycle(true))
	ctx := context.Background()
	srv, eg := merkleEdge(t, 600)
	req := rangeRequest(t, 100, 355)

	_, body, err := eg.dispatch(ctx, wire.MsgShardQueryReq, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	dreq, _ := wire.DecodeShardQueryRequest(req)
	q, err := eg.compile(dreq.Query)
	if err != nil {
		t.Fatal(err)
	}
	rs, w, sm, err := eg.RunShardQuery(ctx, "items", 0, q)
	if err != nil {
		t.Fatal(err)
	}
	structs := func() []byte {
		return (&wire.ShardQueryResponse{Resp: &wire.QueryResponse{Result: rs, VO: w}, SignedMap: sm.Encode()}).Encode()
	}
	if !bytes.Equal(structs(), body) {
		t.Fatal("RunShardQuery's structs and the wire body disagree")
	}
	want := append([]byte(nil), body...)

	store := eg.replica("items").set.Load().shards[0].store
	_, recycledBefore := store.Stats()
	for i := int64(0); i < 8; i++ {
		lo, hi := schema.Int64(100+i*32), schema.Int64(100+i*32+31)
		if _, err := srv.DeleteRange("items", &lo, &hi); err != nil {
			t.Fatal(err)
		}
		if _, err := eg.Refresh(ctx, "items"); err != nil {
			t.Fatal(err)
		}
	}
	if _, recycled := store.Stats(); recycled == recycledBefore {
		t.Fatal("no page buffer was recycled: the test did not exercise what it is about")
	}
	if !bytes.Equal(body, want) {
		t.Error("the wire body changed after its snapshot was swept")
	}
	if !bytes.Equal(structs(), want) {
		t.Error("RunShardQuery's structs changed after their snapshot was swept")
	}
}
