package central

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"edgeauth/internal/israce"
	"edgeauth/internal/schema"
	"edgeauth/internal/wal"
	"edgeauth/internal/wire"
	"edgeauth/internal/workload"
)

// newDeltaServer builds a central server with the "items" table and the
// given changelog retention.
func newDeltaServer(t *testing.T, rows, retention int, walDir string) *Server {
	t.Helper()
	srv, err := NewServerWithKey(Options{
		PageSize:       1024,
		DeltaRetention: retention,
		WALDir:         walDir,
	}, serverKey(t))
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
	if err := srv.AddTable(sch, tuples); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// tableEpoch fetches the "items" incarnation id.
func tableEpoch(t *testing.T, srv *Server) uint64 {
	t.Helper()
	ep, err := srv.TableEpoch("items")
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// insertRow adds a fresh row with the workload's column layout.
func insertRow(t *testing.T, srv *Server, id int64) {
	t.Helper()
	sch, err := workload.DefaultSpec(1).Schema()
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]schema.Datum, len(sch.Columns))
	vals[0] = schema.Int64(id)
	for i := 1; i < len(vals); i++ {
		if sch.Columns[i].Name == "cat" {
			vals[i] = schema.Str(workload.CategoryName(0))
			continue
		}
		vals[i] = schema.Str("delta-test-payload-xx")
	}
	if err := srv.Insert("items", schema.Tuple{Values: vals}); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaEmptyWhenCurrent(t *testing.T) {
	srv := newDeltaServer(t, 50, 0, "")
	v, err := srv.Version("items")
	if err != nil {
		t.Fatal(err)
	}
	d, err := srv.ShardDelta("items", 0, v, tableEpoch(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	if d.SnapshotNeeded || d.ToVersion != v || len(d.PageIDs) != 0 {
		t.Fatalf("empty delta: %+v", d)
	}
	if err := srv.PublicKey().Verify(d.Sig, d.SigPayload()); err != nil {
		t.Fatalf("delta signature invalid: %v", err)
	}
}

func TestDeltaCarriesOnlyChangedPages(t *testing.T) {
	srv := newDeltaServer(t, 400, 0, "")
	snapBefore, err := srv.ShardSnapshot("items", 0)
	if err != nil {
		t.Fatal(err)
	}
	insertRow(t, srv, 10_000)
	lo := schema.Int64(0)
	hi := schema.Int64(3)
	if _, err := srv.DeleteRange("items", &lo, &hi); err != nil {
		t.Fatal(err)
	}
	d, err := srv.ShardDelta("items", 0, snapBefore.Version, snapBefore.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if d.SnapshotNeeded {
		t.Fatal("delta within retention answered SnapshotNeeded")
	}
	if d.ToVersion != snapBefore.Version+2 {
		t.Fatalf("ToVersion = %d, want %d", d.ToVersion, snapBefore.Version+2)
	}
	if len(d.PageIDs) == 0 {
		t.Fatal("delta carries no pages after updates")
	}
	if len(d.PageIDs) >= len(snapBefore.PageIDs) {
		t.Fatalf("delta has %d pages, snapshot only %d — no savings", len(d.PageIDs), len(snapBefore.PageIDs))
	}
	if err := srv.PublicKey().Verify(d.Sig, d.SigPayload()); err != nil {
		t.Fatalf("delta signature invalid: %v", err)
	}
}

func TestDeltaFallsBackPastRetention(t *testing.T) {
	srv := newDeltaServer(t, 100, 3, "")
	base, err := srv.Version("items")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		insertRow(t, srv, 20_000+int64(i))
	}
	// base is 5 versions behind with only 3 retained: snapshot needed.
	d, err := srv.ShardDelta("items", 0, base, tableEpoch(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	if !d.SnapshotNeeded {
		t.Fatal("delta served beyond retention window")
	}
	// base+2 is exactly 3 behind: still covered.
	d, err = srv.ShardDelta("items", 0, base+2, tableEpoch(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	if d.SnapshotNeeded {
		t.Fatal("delta within retention answered SnapshotNeeded")
	}
	// A "future" version (central restarted, edge ahead) needs a snapshot.
	d, err = srv.ShardDelta("items", 0, base+100, tableEpoch(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	if !d.SnapshotNeeded {
		t.Fatal("future version did not force a snapshot")
	}
}

func TestDeltaRejectsForeignEpoch(t *testing.T) {
	// Two incarnations of the same table (same key, same rows — the
	// central-restart scenario): versions are not comparable across them,
	// so a replica of one must get SnapshotNeeded from the other even
	// when its version appears covered.
	srvA := newDeltaServer(t, 30, 0, "")
	srvB := newDeltaServer(t, 30, 0, "")
	insertRow(t, srvB, 30_001)
	d, err := srvB.ShardDelta("items", 0, 0, tableEpoch(t, srvA))
	if err != nil {
		t.Fatal(err)
	}
	if !d.SnapshotNeeded {
		t.Fatal("delta served across table incarnations")
	}
	if d.Epoch != tableEpoch(t, srvB) {
		t.Fatal("delta does not advertise the server's epoch")
	}
	// Same epoch works.
	d, err = srvB.ShardDelta("items", 0, 0, tableEpoch(t, srvB))
	if err != nil {
		t.Fatal(err)
	}
	if d.SnapshotNeeded {
		t.Fatal("matching epoch refused a delta")
	}
}

func TestLoggedOpsMatchChangelog(t *testing.T) {
	srv := newDeltaServer(t, 60, 0, t.TempDir())
	insertRow(t, srv, 40_000)
	lo := schema.Int64(5)
	if _, err := srv.DeleteRange("items", &lo, &lo); err != nil {
		t.Fatal(err)
	}
	ops, err := srv.LoggedOps("items")
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 {
		t.Fatalf("logged %d ops, want 2", len(ops))
	}
	if ops[0].Kind != wal.RecBatch || len(ops[0].Tuples) != 1 || ops[0].Tuples[0].Values[0].I != 40_000 {
		t.Fatalf("op0 = %+v", ops[0])
	}
	if ops[1].Kind != wal.RecDelete || ops[1].Lo.I != 5 || ops[1].Hi.I != 5 {
		t.Fatalf("op1 = %+v", ops[1])
	}
	// LoggedOps without WAL configured errors.
	plain := newDeltaServer(t, 10, 0, "")
	if _, err := plain.LoggedOps("items"); err == nil {
		t.Fatal("LoggedOps without WALDir succeeded")
	}
}

// TestDeltaServeAllocationBudget: a served delta's body is built once. In
// a frame buffer with room for it (what a connection lends once it has
// sent a delta) nothing the size of the body is allocated at all; with no
// buffer to build in there is exactly one allocation of exactly the body's
// size. Either way the number of allocations does not grow with the
// number of pages the delta carries — no page is copied anywhere but into
// the body — and the body is what the struct form encodes to.
func TestDeltaServeAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	ctx := context.Background()
	srv := newDeltaServer(t, 2000, 0, "")
	epoch := tableEpoch(t, srv)
	base, err := srv.Version("items")
	if err != nil {
		t.Fatal(err)
	}
	serve := func(req, out []byte) []byte {
		mt, body, err := srv.dispatch(ctx, wire.MsgShardDeltaReq, req, out)
		if err != nil || mt != wire.MsgDeltaResp {
			t.Fatalf("dispatch: %v, %v", mt, err)
		}
		return body
	}
	frame := make([]byte, 0, 1<<21)
	var allocs [2]float64
	// One insert dirties a handful of pages, the delete after it hundreds.
	for i, commit := range []func(){
		func() { insertRow(t, srv, 100_000) },
		func() {
			lo, hi := schema.Int64(0), schema.Int64(1500)
			if _, err := srv.DeleteRange("items", &lo, &hi); err != nil {
				t.Fatal(err)
			}
		},
	} {
		commit()
		req := (&wire.ShardDeltaRequest{Table: "items", ShardID: 1, FromVersion: base + uint64(i), Epoch: epoch}).Encode()
		body := serve(req, frame)
		if &body[0] != &frame[:1][0] {
			t.Fatal("the delta was not built in the buffer the transport lent")
		}
		d, err := wire.DecodeDelta(body)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.PublicKey().Verify(d.Sig, d.SigPayload()); err != nil {
			t.Fatalf("served body does not verify: %v", err)
		}
		sd, err := srv.ShardDelta("items", 0, d.FromVersion, epoch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sd.Encode(), body) {
			t.Fatal("ShardDelta's struct does not encode to the served body")
		}

		const runs = 50
		allocs[i] = testing.AllocsPerRun(runs, func() { serve(req, frame) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < runs; r++ {
			serve(req, frame)
		}
		runtime.ReadMemStats(&after)
		lent := int(after.TotalAlloc-before.TotalAlloc) / runs
		runtime.ReadMemStats(&before)
		for r := 0; r < runs; r++ {
			if fresh := serve(req, nil); cap(fresh) != len(body) {
				t.Fatalf("a %d-byte body was built in a %d-byte allocation", len(body), cap(fresh))
			}
		}
		runtime.ReadMemStats(&after)
		unlent := int(after.TotalAlloc-before.TotalAlloc) / runs
		// Besides the body: the page-ID list and the views of the pages (28
		// bytes a page), the signature and what making it costs, and the
		// rounding of one large allocation to its size class.
		if slack := 28*len(d.PageIDs) + 16384; lent > slack || unlent > len(body)+slack {
			t.Errorf("%d-page delta of %d bytes: %d bytes allocated building it in place, %d building it fresh; budget %d and %d",
				len(d.PageIDs), len(body), lent, unlent, slack, len(body)+slack)
		}
		t.Logf("%d-page delta of %d bytes: %.0f allocations, %d bytes in place, %d bytes fresh", len(d.PageIDs), len(body), allocs[i], lent, unlent)
	}
	if allocs[0] != allocs[1] || allocs[1] > 64 {
		t.Errorf("%.0f allocations for the small delta, %.0f for the large one; want the same number, at most 64", allocs[0], allocs[1])
	}
}
