package edge

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"edgeauth/internal/central"
	"edgeauth/internal/client"
	"edgeauth/internal/query"
	"edgeauth/internal/schema"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/wire"
)

// fakeCentral fronts a real central server. It can be re-pointed at
// another incarnation mid-test — a restart: same key, same rows, a new
// table epoch — and told to fail snapshot requests (modelling the
// fallback pull dying mid-recovery).
type fakeCentral struct {
	backend      atomic.Pointer[central.Server]
	failSnapshot atomic.Bool
	snapshotReqs atomic.Int64
	listServed   atomic.Bool
}

func newFakeCentral(backend *central.Server) *fakeCentral {
	f := &fakeCentral{}
	f.backend.Store(backend)
	return f
}

func (f *fakeCentral) serve(t *testing.T) string {
	t.Helper()
	return serveHandler(t, f.dispatch)
}

func (f *fakeCentral) dispatch(ctx context.Context, mt wire.MsgType, body, _ []byte) (wire.MsgType, []byte, error) {
	srv := f.backend.Load()
	switch mt {
	case wire.MsgPubKeyReq:
		blob, err := srv.PublicKey().MarshalBinary()
		if err != nil {
			return 0, nil, err
		}
		return wire.MsgPubKeyResp, blob, nil
	case wire.MsgSchemaReq:
		resp, err := srv.SchemaResponse(string(body))
		if err != nil {
			return 0, nil, err
		}
		return wire.MsgSchemaResp, resp.Encode(), nil
	case wire.MsgListTablesReq:
		f.listServed.Store(true)
		return wire.MsgListTablesResp, wire.EncodeStringList(srv.Tables()), nil
	case wire.MsgShardMapReq:
		sm, err := srv.SignedShardMap(string(body))
		if err != nil {
			return 0, nil, err
		}
		return wire.MsgShardMapResp, sm.Encode(), nil
	case wire.MsgShardSnapshotReq:
		f.snapshotReqs.Add(1)
		if f.failSnapshot.Load() {
			return 0, nil, errors.New("fake central: snapshot store unavailable")
		}
		req, err := wire.DecodeShardSnapshotRequest(body)
		if err != nil {
			return 0, nil, err
		}
		snap, err := srv.ShardSnapshotByID(req.Table, req.ShardID)
		if err != nil {
			return 0, nil, err
		}
		return wire.MsgSnapshotResp, snap.Encode(), nil
	case wire.MsgShardDeltaReq:
		req, err := wire.DecodeShardDeltaRequest(body)
		if err != nil {
			return 0, nil, err
		}
		d, err := srv.ShardDeltaByID(req.Table, req.ShardID, req.FromVersion, req.Epoch)
		if err != nil {
			return 0, nil, err
		}
		return wire.MsgDeltaResp, d.Encode(), nil
	default:
		return 0, nil, wire.Unsupported("fake-central", mt)
	}
}

// TestQueriesReportStaleReplicaAfterEpochDivergence: when a refresh
// discovers the central's table epoch has diverged and the snapshot
// fallback fails, queries must return the errors.Is-matchable
// wire.ErrStaleReplica instead of silently serving the dead incarnation —
// and heal once a snapshot finally installs.
func TestQueriesReportStaleReplicaAfterEpochDivergence(t *testing.T) {
	ctx := context.Background()
	srv, _ := startCentral(t, 120)

	// Seed the replica from the first incarnation.
	fake := newFakeCentral(srv)
	eg := New(fake.serve(t))
	t.Cleanup(func() { eg.Close() })
	if err := eg.PullAll(ctx); err != nil {
		t.Fatal(err)
	}

	// The central restarts: the same rows under the same key, but a new
	// table epoch — and its snapshot store is down.
	restarted, _ := startCentral(t, 120)
	if mustEpoch(t, restarted) == mustEpoch(t, srv) {
		t.Fatal("two incarnations drew the same table epoch")
	}
	fake.backend.Store(restarted)
	fake.failSnapshot.Store(true)
	fake.snapshotReqs.Store(0)

	lo, hi := schema.Int64(10), schema.Int64(20)
	if _, _, err := runQuery(ctx, eg, "items", vbtree.Query{Lo: &lo, Hi: &hi}); err != nil {
		t.Fatalf("pre-divergence query: %v", err)
	}

	// Refresh discovers the epoch divergence; the snapshot fallback dies.
	if _, err := eg.Refresh(ctx, "items"); err == nil {
		t.Fatal("refresh succeeded although the snapshot fallback failed")
	}
	if fake.snapshotReqs.Load() == 0 {
		t.Fatal("refresh never attempted the snapshot fallback")
	}

	// Queries now signal staleness instead of answering from the dead
	// incarnation — locally and through a TCP client.
	_, _, err := runQuery(ctx, eg, "items", vbtree.Query{Lo: &lo, Hi: &hi})
	if !errors.Is(err, wire.ErrStaleReplica) {
		t.Fatalf("query on diverged replica: %v, want wire.ErrStaleReplica", err)
	}
	edgeAddr := startEdge(t, eg)
	cl, err := client.Dial(ctx, client.Config{EdgeAddr: edgeAddr, CentralAddr: fake.serve(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Query(ctx, "items", []query.Predicate{
		{Column: "id", Op: query.OpGE, Value: schema.Int64(10)},
	}, nil)
	if !errors.Is(err, wire.ErrStaleReplica) {
		t.Fatalf("client query on diverged replica: %v, want wire.ErrStaleReplica", err)
	}

	// Healing: the snapshot store comes back, a refresh reinstalls, and
	// queries serve again.
	fake.failSnapshot.Store(false)
	st, err := eg.Refresh(ctx, "items")
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "snapshot" {
		t.Fatalf("healing refresh mode = %q, want snapshot", st.Mode)
	}
	if _, _, err := runQuery(ctx, eg, "items", vbtree.Query{Lo: &lo, Hi: &hi}); err != nil {
		t.Fatalf("query after snapshot reinstall: %v", err)
	}
}

// flagCtx reports cancellation as soon as flag is set — without a Done
// channel, so in-flight calls complete and only explicit ctx.Err() checks
// observe it. It models a caller whose deadline expires between tables.
type flagCtx struct {
	context.Context
	flag *atomic.Bool
}

func (c *flagCtx) Err() error {
	if c.flag.Load() {
		return context.Canceled
	}
	return nil
}

// TestRefreshAllStopsOnCancelledContext: a context cancelled after the
// table listing must stop the per-table loop instead of marching on (or
// accumulating one dial error per remaining table).
func TestRefreshAllStopsOnCancelledContext(t *testing.T) {
	srv, _ := startCentral(t, 60)
	fake := newFakeCentral(srv)
	eg := New(fake.serve(t))
	t.Cleanup(func() { eg.Close() })

	// The context cancels the moment the table listing has been served —
	// before the loop reaches any table.
	ctx := &flagCtx{Context: context.Background(), flag: &fake.listServed}
	stats, err := eg.RefreshAll(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RefreshAll error = %v, want context.Canceled", err)
	}
	if len(stats) != 0 {
		t.Fatalf("cancelled RefreshAll still refreshed %d tables", len(stats))
	}
	if strings.Contains(err.Error(), "refreshing") {
		t.Fatalf("cancelled RefreshAll still visited tables: %v", err)
	}
	// The pre-fix loop would have pulled the (missing) replica's snapshot.
	if n := fake.snapshotReqs.Load(); n != 0 {
		t.Fatalf("cancelled RefreshAll still issued %d snapshot pulls", n)
	}
}
