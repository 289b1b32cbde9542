package edge

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgeauth/internal/central"
	"edgeauth/internal/schema"
	"edgeauth/internal/wire"
)

// The concurrent refresh pass, one shard misbehaving at a time. Each test
// fronts a real 4-shard central with a scripted handler, so what goes
// wrong, and when relative to the other three fetches, is decided by the
// script and not by timing.

// dirtyAllShards commits one delete to each of the four shards of a
// 400-row table and checks that every shard's pin moved.
func dirtyAllShards(t *testing.T, srv *central.Server, round int64) {
	t.Helper()
	before, err := srv.SignedShardMap("items")
	if err != nil {
		t.Fatal(err)
	}
	for shard := int64(0); shard < 4; shard++ {
		k := schema.Int64(shard*100 + round)
		if n, err := srv.DeleteRange("items", &k, &k); err != nil || n != 1 {
			t.Fatalf("delete %d: n=%d err=%v", k.I, n, err)
		}
	}
	after, err := srv.SignedShardMap("items")
	if err != nil {
		t.Fatal(err)
	}
	for i := range after.Map.Shards {
		if after.Map.Shards[i].Version == before.Map.Shards[i].Version {
			t.Fatalf("shard %d was not dirtied", i)
		}
	}
}

// scriptFn sees a request before the central does; a request it does not
// answer (ok false) goes on to the central.
type scriptFn func(ctx context.Context, mt wire.MsgType, body []byte) (rt wire.MsgType, resp []byte, err error, ok bool)

// frontedEdge bootstraps an edge from a 4-shard central through a front
// that runs the script the test installs afterwards.
func frontedEdge(t *testing.T) (srv *central.Server, eg *Server, addr string, script *atomic.Pointer[scriptFn]) {
	t.Helper()
	srv, _ = startCentralOpts(t, 400, central.Options{PageSize: 1024, Shards: 4})
	front := newFakeCentral(srv)
	script = new(atomic.Pointer[scriptFn])
	addr = serveHandler(t, func(ctx context.Context, mt wire.MsgType, body, out []byte) (wire.MsgType, []byte, error) {
		if fn := script.Load(); fn != nil {
			if rt, resp, err, ok := (*fn)(ctx, mt, body); ok {
				return rt, resp, err
			}
		}
		return front.dispatch(ctx, mt, body, out)
	})
	eg = New(addr)
	t.Cleanup(func() { eg.Close() })
	if err := eg.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	return srv, eg, addr, script
}

// TestRefreshFanOutKeepsProgressWhenOneShardFails: the central fails one
// shard's delta hard after the other three have been applied. The refresh
// reports that error and publishes nothing; the three stores keep what
// they applied; and the next refresh resumes from their heads, so it pulls
// the one delta that is missing and no other.
func TestRefreshFanOutKeepsProgressWhenOneShardFails(t *testing.T) {
	ctx := context.Background()
	srv, eg, addr, script := frontedEdge(t)
	dirtyAllShards(t, srv, 7)
	smap, err := srv.SignedShardMap("items")
	if err != nil {
		t.Fatal(err)
	}
	failing := smap.Map.Shards[2].ID

	published := eg.replica("items").set.Load()
	before := eg.Stats()
	var failOne scriptFn = func(ctx context.Context, mt wire.MsgType, body []byte) (wire.MsgType, []byte, error, bool) {
		if mt != wire.MsgShardDeltaReq {
			return 0, nil, nil, false
		}
		req, err := wire.DecodeShardDeltaRequest(body)
		if err != nil || req.ShardID != failing {
			return 0, nil, err, err != nil
		}
		// Fail only once the three siblings have applied their deltas.
		deadline := time.Now().Add(10 * time.Second)
		for eg.Stats().DeltasApplied < before.DeltasApplied+3 {
			if ctx.Err() != nil || time.Now().After(deadline) {
				t.Error("the sibling shards were not refreshed beside the failing one")
				break
			}
			time.Sleep(time.Millisecond)
		}
		return 0, nil, errors.New("scripted central: changelog unavailable"), true
	}
	script.Store(&failOne)
	if _, err := eg.Refresh(ctx, "items"); err == nil || !strings.Contains(err.Error(), "changelog unavailable") {
		t.Fatalf("refresh with one failing shard returned %v, want the central's error", err)
	}
	if eg.replica("items").set.Load() != published {
		t.Fatal("a set was published although one shard did not align")
	}
	for i, sr := range published.shards {
		head, err := storeState(sr.store)
		if err != nil {
			t.Fatal(err)
		}
		want := smap.Map.Shards[i].Version
		if i == 2 {
			want = sr.state.Version
		}
		if head.Version != want {
			t.Fatalf("shard %d store at v%d after the failed round, want v%d", i, head.Version, want)
		}
	}
	failed := eg.Stats()
	if got := failed.DeltasApplied - before.DeltasApplied; got != 3 {
		t.Fatalf("the failed round applied %d deltas, want 3", got)
	}

	script.Store(nil)
	st, err := eg.Refresh(ctx, "items")
	if err != nil {
		t.Fatal(err)
	}
	healed := eg.Stats()
	// One map and the missing delta: the three stores that got ahead of the
	// published set are only re-pinned.
	if deltas, payloads := healed.DeltasApplied-failed.DeltasApplied, healed.CentralPayloadsPulled-failed.CentralPayloadsPulled; deltas != 1 || payloads != 2 || healed.SnapshotsInstalled != failed.SnapshotsInstalled {
		t.Fatalf("the next refresh applied %d deltas over %d payloads and installed %d snapshots; want 1 over 2 (map, delta) and 0",
			deltas, payloads, healed.SnapshotsInstalled-failed.SnapshotsInstalled)
	}
	if st.Mode != "delta" || st.ShardsRefreshed != 1 {
		t.Fatalf("the next refresh reported %+v, want delta/1", st)
	}
	if n := verifiedCount(t, startEdge(t, eg), addr, -1_000_000); n != 396 {
		t.Fatalf("verified rows = %d, want 396", n)
	}
}

// TestRefreshFanOutRefetchesMapOnShardMoved: a split retires shard 0 after
// the refresh took its map and before any delta is served, so one of the
// four fetches in flight is answered with a typed ShardMoved. That costs
// one map refetch, after which the round completes on the new partition.
func TestRefreshFanOutRefetchesMapOnShardMoved(t *testing.T) {
	ctx := context.Background()
	srv, eg, addr, script := frontedEdge(t)
	dirtyAllShards(t, srv, 7)

	var split sync.Once
	var splitFirst scriptFn = func(ctx context.Context, mt wire.MsgType, _ []byte) (wire.MsgType, []byte, error, bool) {
		if mt == wire.MsgShardDeltaReq {
			split.Do(func() {
				if _, err := srv.SplitShard(ctx, "items", 0, nil); err != nil {
					t.Error(err)
				}
			})
		}
		return 0, nil, nil, false
	}
	script.Store(&splitFirst)
	before := eg.Stats()
	if _, err := eg.Refresh(ctx, "items"); err != nil {
		t.Fatalf("refresh racing a split: %v", err)
	}
	after := eg.Stats()
	if got := after.ReshardsApplied - before.ReshardsApplied; got != 1 {
		t.Fatalf("reshards applied +%d, want +1", got)
	}
	if got := after.SnapshotsInstalled - before.SnapshotsInstalled; got != 2 {
		t.Fatalf("%d snapshots installed, want the split's 2 children", got)
	}
	// The three surviving shards each needed their delta exactly once,
	// whether it arrived before the ShardMoved cancelled the pass or in the
	// pass after the refetch.
	if got := after.DeltasApplied - before.DeltasApplied; got != 3 {
		t.Fatalf("%d deltas applied, want 3", got)
	}
	// Every payload that was accepted is counted, so 7 of them leave two
	// for maps: the one the round started with and a single refetch.
	if got := after.CentralPayloadsPulled - before.CentralPayloadsPulled; got != 7 {
		t.Fatalf("%d central payloads pulled, want 7 (map, refetched map, 3 deltas, 2 snapshots)", got)
	}
	set := eg.replica("items").set.Load()
	if len(set.shards) != 5 {
		t.Fatalf("edge serves %d shards, want 5", len(set.shards))
	}
	if want, _ := srv.Version("items"); set.smap.Map.MapVersion != want {
		t.Fatalf("published map v%d, central at v%d", set.smap.Map.MapVersion, want)
	}
	for i, sr := range set.shards {
		if set.smap.Map.Shards[i].Version != sr.state.Version {
			t.Fatalf("shard %d: map pins v%d, store at v%d", i, set.smap.Map.Shards[i].Version, sr.state.Version)
		}
	}
	if n := verifiedCount(t, startEdge(t, eg), addr, -1_000_000); n != 396 {
		t.Fatalf("verified rows = %d, want 396", n)
	}
}

// TestRefreshFanOutPeerBreakingSourceRule: an upstream that answers every
// delta request with another shard's (authentically signed) delta, asked
// by four shards at once. Each shard in flight can spend one attempt on
// it before it is backed off — never more — none of its payloads is
// accepted, and the central finishes the round.
func TestRefreshFanOutPeerBreakingSourceRule(t *testing.T) {
	ctx := context.Background()
	srv, centralAddr := startCentralOpts(t, 400, central.Options{PageSize: 1024, Shards: 4})
	smap, err := srv.SignedShardMap("items")
	if err != nil {
		t.Fatal(err)
	}
	ids := shardIDs(smap)
	peerAddr := serveHandler(t, func(_ context.Context, mt wire.MsgType, body, _ []byte) (wire.MsgType, []byte, error) {
		switch mt {
		case wire.MsgShardSnapshotReq:
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
			other := ids[0]
			for i, id := range ids {
				if id == req.ShardID {
					other = ids[(i+1)%len(ids)]
				}
			}
			d, err := srv.ShardDeltaByID(req.Table, other, req.FromVersion, req.Epoch)
			if err != nil {
				return 0, nil, err
			}
			return wire.MsgDeltaResp, d.Encode(), nil
		}
		return 0, nil, wire.Unsupported("scripted-peer", mt)
	})
	eg := NewWithOptions(centralAddr, Options{Upstreams: []string{peerAddr}})
	t.Cleanup(func() { eg.Close() })
	if err := eg.PullAll(ctx); err != nil {
		t.Fatal(err)
	}
	if st := eg.Stats(); st.PeerPayloadsPulled != 4 || st.PeerFailovers != 0 {
		t.Fatalf("honest bootstrap: %d peer payloads, %d failovers; want 4, 0", st.PeerPayloadsPulled, st.PeerFailovers)
	}

	dirtyAllShards(t, srv, 7)
	before := eg.Stats()
	if _, err := eg.Refresh(ctx, "items"); err != nil {
		t.Fatalf("round with a rule-breaking peer: %v", err)
	}
	after := eg.Stats()
	if got := after.PeerFailovers - before.PeerFailovers; got < 1 || got > 4 {
		t.Fatalf("peer failovers +%d, want between 1 and 4 (one attempt per shard in flight at most)", got)
	}
	if got := after.PeerPayloadsPulled - before.PeerPayloadsPulled; got != 0 {
		t.Fatalf("%d rule-breaking peer payloads were accepted", got)
	}
	if deltas, payloads := after.DeltasApplied-before.DeltasApplied, after.CentralPayloadsPulled-before.CentralPayloadsPulled; deltas != 4 || payloads != 5 {
		t.Fatalf("the central finished the round with %d deltas over %d payloads, want 4 over 5 (map, 4 deltas)", deltas, payloads)
	}
	want, _ := srv.Version("items")
	if v, _ := eg.Version("items"); v != want {
		t.Fatalf("edge at v%d, central at v%d: the central did not finish the round", v, want)
	}
	if n := verifiedCount(t, startEdge(t, eg), centralAddr, -1_000_000); n != 396 {
		t.Fatalf("verified rows = %d, want 396", n)
	}
}
