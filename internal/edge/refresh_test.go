package edge

import (
	"context"
	"net"
	"strings"
	"testing"

	"edgeauth/internal/central"
	"edgeauth/internal/client"
	"edgeauth/internal/query"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/wire"
	"edgeauth/internal/workload"
)

// startCentralOpts is startCentral with explicit options (delta retention,
// WAL) for the refresh tests.
func startCentralOpts(t *testing.T, rows int, opts central.Options) (*central.Server, string) {
	t.Helper()
	return startCentralKey(t, rows, opts, serverKey(t))
}

// startCentralKey is startCentralOpts under a caller-chosen signing key
// (a scheme-retagged one, say).
func startCentralKey(t *testing.T, rows int, opts central.Options, key *sig.PrivateKey) (*central.Server, string) {
	t.Helper()
	srv, err := central.NewServerWithKey(opts, key)
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
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// freshRow builds an insertable row with the workload's column layout.
func freshRow(t *testing.T, id int64) schema.Tuple {
	t.Helper()
	sch, err := workload.DefaultSpec(1).Schema()
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]schema.Datum, len(sch.Columns))
	vals[0] = schema.Int64(id)
	for i := 1; i < len(vals); i++ {
		if sch.Columns[i].Name == "cat" {
			vals[i] = schema.Str(workload.CategoryName(1))
			continue
		}
		vals[i] = schema.Str("refresh-test-payload-")
	}
	return schema.Tuple{Values: vals}
}

// mustEpoch fetches the "items" incarnation id.
func mustEpoch(t *testing.T, srv *central.Server) uint64 {
	t.Helper()
	ep, err := srv.TableEpoch("items")
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// startEdge serves an edge (already pulled) on loopback for clients.
func startEdge(t *testing.T, eg *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go eg.Serve(ln)
	t.Cleanup(func() { eg.Close() })
	return ln.Addr().String()
}

// TestRefreshDeltaEndToEnd drives the whole periodic-propagation path
// over real TCP: updates commit at the central server, a refresh tick
// ships a signed delta, and a verifying client sees the new state.
func TestRefreshDeltaEndToEnd(t *testing.T) {
	srv, centralAddr := startCentralOpts(t, 200, central.Options{PageSize: 1024})
	eg := New(centralAddr)
	if err := eg.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	edgeAddr := startEdge(t, eg)

	cl, err := client.Dial(context.Background(), client.Config{EdgeAddr: edgeAddr, CentralAddr: centralAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.FetchTrustedKey(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Route updates through the client to the central server.
	if err := cl.Insert(context.Background(), "items", freshRow(t, 50_000)); err != nil {
		t.Fatal(err)
	}
	lo, hi := schema.Int64(0), schema.Int64(4)
	if n, err := cl.DeleteRange(context.Background(), "items", &lo, &hi); err != nil || n != 5 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}

	// The replica is stale until a refresh tick.
	if v, err := eg.Version("items"); err != nil || v != 0 {
		t.Fatalf("replica version before refresh: %d, %v", v, err)
	}

	stats, err := eg.RefreshAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Mode != "delta" {
		t.Fatalf("refresh stats = %+v, want one delta", stats)
	}
	want, err := srv.Version("items")
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].ToVersion != want {
		t.Fatalf("refresh reached v%d, central at v%d", stats[0].ToVersion, want)
	}

	// A verified client query reflects both updates.
	res, err := cl.Query(context.Background(), "items", []query.Predicate{
		{Column: "id", Op: query.OpGE, Value: schema.Int64(49_999)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Result.Tuples) != 1 || res.Result.Tuples[0].Values[0].I != 50_000 {
		t.Fatalf("inserted row not visible after delta refresh: %+v", res.Result.Tuples)
	}
	res, err = cl.Query(context.Background(), "items", []query.Predicate{
		{Column: "id", Op: query.OpLE, Value: schema.Int64(4)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Result.Tuples) != 0 {
		t.Fatalf("deleted rows still visible after delta refresh: %d", len(res.Result.Tuples))
	}

	// A second tick with nothing pending is a signed noop.
	stats, err = eg.RefreshAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Mode != "noop" {
		t.Fatalf("idle refresh mode = %q", stats[0].Mode)
	}
}

// TestRefreshSnapshotFallback forces the replica out of the central
// server's retention window and checks the refresh falls back to a full
// snapshot that still verifies end to end.
func TestRefreshSnapshotFallback(t *testing.T) {
	srv, centralAddr := startCentralOpts(t, 150, central.Options{PageSize: 1024, DeltaRetention: 2})
	eg := New(centralAddr)
	if err := eg.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	edgeAddr := startEdge(t, eg)

	for i := int64(0); i < 5; i++ {
		if err := srv.Insert("items", freshRow(t, 60_000+i)); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := eg.RefreshAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Mode != "snapshot" {
		t.Fatalf("refresh mode = %q, want snapshot fallback", stats[0].Mode)
	}
	want, err := srv.Version("items")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := eg.Version("items"); err != nil || got != want {
		t.Fatalf("replica at v%d after fallback, central at v%d (%v)", got, want, err)
	}

	cl, err := client.Dial(context.Background(), client.Config{EdgeAddr: edgeAddr, CentralAddr: centralAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.FetchTrustedKey(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Query(context.Background(), "items", []query.Predicate{
		{Column: "id", Op: query.OpGE, Value: schema.Int64(60_000)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Result.Tuples) != 5 {
		t.Fatalf("snapshot fallback lost rows: got %d, want 5", len(res.Result.Tuples))
	}

	// Within the window again: the next update arrives as a delta.
	if err := srv.Insert("items", freshRow(t, 70_000)); err != nil {
		t.Fatal(err)
	}
	stats, err = eg.RefreshAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Mode != "delta" {
		t.Fatalf("post-fallback refresh mode = %q, want delta", stats[0].Mode)
	}
}

// TestDeltaTransfersLessThanSnapshot pins the scaling claim: a small
// update batch on a large table must move far fewer bytes as a delta
// than as a snapshot.
func TestDeltaTransfersLessThanSnapshot(t *testing.T) {
	srv, centralAddr := startCentralOpts(t, 2_000, central.Options{PageSize: 1024})
	eg := New(centralAddr)
	if err := eg.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap, err := srv.ShardSnapshot("items", 0)
	if err != nil {
		t.Fatal(err)
	}
	snapshotBytes := len(snap.Encode())

	for i := int64(0); i < 4; i++ {
		if err := srv.Insert("items", freshRow(t, 80_000+i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := eg.Refresh(context.Background(), "items")
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "delta" {
		t.Fatalf("refresh mode = %q", st.Mode)
	}
	if st.Bytes*4 >= snapshotBytes {
		t.Fatalf("delta of %d bytes is not asymptotically smaller than snapshot of %d bytes", st.Bytes, snapshotBytes)
	}
	t.Logf("4-op delta: %d bytes; full snapshot: %d bytes (%.1fx saving)",
		st.Bytes, snapshotBytes, float64(snapshotBytes)/float64(st.Bytes))
}

// TestRefreshRejectsForgedDelta checks the edge refuses a delta whose
// signature does not verify under the central server's public key.
func TestRefreshRejectsForgedDelta(t *testing.T) {
	srv, centralAddr := startCentralOpts(t, 100, central.Options{PageSize: 1024})
	eg := New(centralAddr)
	if err := eg.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Insert("items", freshRow(t, 90_000)); err != nil {
		t.Fatal(err)
	}
	d, err := srv.ShardDelta("items", 0, 0, mustEpoch(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a content byte: the signature no longer matches.
	d.ToVersion++
	pub := srv.PublicKey()
	if err := pub.Verify(d.Sig, d.SigPayload()); err == nil {
		t.Fatal("tampered delta still verifies")
	}
	// And the genuine delta does.
	d.ToVersion--
	if err := pub.Verify(d.Sig, d.SigPayload()); err != nil {
		t.Fatalf("genuine delta rejected: %v", err)
	}

	// An edge replica applies only matching versions.
	rep := eg.replica("items")
	bogus := *d
	bogus.FromVersion = 7
	if err := applyDelta(rep.set.Load().shards[0].store, &bogus, wire.ShardRef("items", 1)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version-mismatched delta applied: %v", err)
	}
}
