package edge

import (
	"context"
	"errors"
	"testing"

	"edgeauth/internal/central"
	"edgeauth/internal/client"
	"edgeauth/internal/query"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/wire"
)

// startPeerTier builds a two-tier deployment: a sharded central, a
// tier-1 edge replicating from it and serving peers, and a tier-2 edge
// whose bulk refresh traffic is configured to flow through tier-1.
// Only the tier-1 edge has pulled; the caller decides when tier-2 does.
func startPeerTier(t *testing.T, rows, shards int) (srv *central.Server, centralAddr string, t1 *Server, t2 *Server) {
	t.Helper()
	return startPeerTierKey(t, rows, shards, serverKey(t))
}

// startPeerTierKey is startPeerTier under a caller-chosen signing key.
func startPeerTierKey(t *testing.T, rows, shards int, key *sig.PrivateKey) (srv *central.Server, centralAddr string, t1 *Server, t2 *Server) {
	t.Helper()
	srv, centralAddr = startCentralKey(t, rows, central.Options{PageSize: 1024, Shards: shards}, key)
	t1 = NewWithOptions(centralAddr, Options{ServePeers: true})
	if err := t1.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	peerAddr := startEdge(t, t1)
	t2 = NewWithOptions(centralAddr, Options{Upstreams: []string{peerAddr}})
	t.Cleanup(func() { t2.Close() })
	return srv, centralAddr, t1, t2
}

// verifiedCount runs a verified scatter-gather client query against an
// edge and returns how many tuples survived verification.
func verifiedCount(t *testing.T, edgeAddr, centralAddr string, loID int64) int {
	t.Helper()
	ctx := context.Background()
	cl, err := client.Dial(ctx, client.Config{EdgeAddr: edgeAddr, CentralAddr: centralAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.FetchTrustedKey(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Query(ctx, "items", []query.Predicate{
		{Column: "id", Op: query.OpGE, Value: schema.Int64(loID)},
	}, nil)
	if err != nil {
		t.Fatalf("verified query: %v", err)
	}
	return len(res.Result.Tuples)
}

// TestPeerTierBootstrapAndDeltaRelay is the tier's happy path, under
// every signature scheme: a late-joining edge bootstraps its shard
// snapshots from a peer (only the signed map and key come from the
// central), and subsequent commits reach it as relayed deltas the peer
// itself pulled — with the central egressing bulk once, to tier-1. What
// tier-2 then serves must verify at a client: a relayed snapshot that
// loses the scheme makes an honest edge's Merkle answers look tampered.
func TestPeerTierBootstrapAndDeltaRelay(t *testing.T) {
	for _, scheme := range []sig.Scheme{sig.SchemeRSAMerkle, sig.SchemeEd25519} {
		t.Run(scheme.String(), func(t *testing.T) {
			key, err := sig.Generate(scheme, 512)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			srv, centralAddr, t1, t2 := startPeerTierKey(t, 300, 2, key)

			// Bootstrap: both shard snapshots come from the peer.
			if err := t2.PullAll(ctx); err != nil {
				t.Fatal(err)
			}
			if got := t2.Stats().PeerPayloadsPulled; got != 2 {
				t.Fatalf("tier-2 pulled %d payloads from peers during bootstrap, want 2 snapshots", got)
			}
			if got := t1.Stats().PeerPayloadsServed; got != 2 {
				t.Fatalf("tier-1 served %d peer payloads, want 2", got)
			}
			if got := t2.Stats().PeerFailovers; got != 0 {
				t.Fatalf("clean bootstrap recorded %d failovers", got)
			}
			t2Addr := startEdge(t, t2)
			if n := verifiedCount(t, t2Addr, centralAddr, 0); n != 300 {
				t.Fatalf("verified rows through the peer-bootstrapped edge = %d, want 300", n)
			}

			// A commit propagates tier by tier: tier-1 pulls the central delta
			// (and caches the raw body), tier-2 gets it relayed.
			if err := srv.Insert("items", freshRow(t, 500_000)); err != nil {
				t.Fatal(err)
			}
			if _, err := t1.Refresh(ctx, "items"); err != nil {
				t.Fatal(err)
			}
			preCentral := t2.Stats().CentralPayloadsPulled
			st, err := t2.Refresh(ctx, "items")
			if err != nil {
				t.Fatal(err)
			}
			if st.Mode != "delta" || st.ShardsRefreshed != 1 {
				t.Fatalf("tier-2 refresh: mode=%q shards=%d, want delta/1", st.Mode, st.ShardsRefreshed)
			}
			// The only central payload in the round is the signed shard map; the
			// delta came from the peer.
			if got := t2.Stats().CentralPayloadsPulled - preCentral; got != 1 {
				t.Fatalf("tier-2 pulled %d central payloads in the refresh round, want 1 (the map)", got)
			}
			if got := t2.Stats().PeerPayloadsPulled; got != 3 {
				t.Fatalf("tier-2 peer payloads after refresh = %d, want 3", got)
			}

			// Tier-2 is exactly where the central is, and client queries against
			// it verify end to end.
			want, err := srv.Version("items")
			if err != nil {
				t.Fatal(err)
			}
			if v, _ := t2.Version("items"); v != want {
				t.Fatalf("tier-2 at v%d, central at v%d", v, want)
			}
			if n := verifiedCount(t, t2Addr, centralAddr, 0); n != 301 {
				t.Fatalf("verified rows after the relayed delta = %d, want 301", n)
			}
		})
	}
}

// TestPeerStaleFailoverToCentral is the staleness guard end to end: the
// upstream peer has NOT refreshed, so its replica is no newer than the
// requester's. It must answer with the typed wire.ErrBehind — and the
// requester must complete the same refresh round from the central —
// rather than ever serving a fabricated empty delta.
func TestPeerStaleFailoverToCentral(t *testing.T) {
	ctx := context.Background()
	srv, _, t1, t2 := startPeerTier(t, 300, 2)
	if err := t2.PullAll(ctx); err != nil {
		t.Fatal(err)
	}

	if err := srv.Insert("items", freshRow(t, 500_000)); err != nil {
		t.Fatal(err)
	}
	// Tier-1 deliberately does not refresh.
	st, err := t2.Refresh(ctx, "items")
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "delta" {
		t.Fatalf("refresh mode = %q, want delta (from the central)", st.Mode)
	}
	if got := t2.Stats().PeerFailovers; got == 0 {
		t.Fatal("stale peer was not scored as a failover")
	}
	want, _ := srv.Version("items")
	if v, _ := t2.Version("items"); v != want {
		t.Fatalf("tier-2 at v%d, central at v%d", v, want)
	}
	_ = t1
}

// TestPeerDeltaGapSnapshotCatchup: the peer is current but its relay
// cache cannot bridge the requester's gap. The typed wire.ErrDeltaGap
// steers the requester to the peer's snapshot — pinned exactly to the
// central-verified map — instead of a silent failure or a central bulk
// pull.
func TestPeerDeltaGapSnapshotCatchup(t *testing.T) {
	ctx := context.Background()
	srv, _, t1, t2 := startPeerTier(t, 300, 2)
	if err := t2.PullAll(ctx); err != nil {
		t.Fatal(err)
	}

	if err := srv.Insert("items", freshRow(t, 500_000)); err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Refresh(ctx, "items"); err != nil {
		t.Fatal(err)
	}
	// Evict the relayable history: the peer stays current but can no
	// longer answer tier-2's from-version with a delta.
	sm, err := t1.SignedShardMap("items")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range shardIDs(sm) {
		t1.relay.Drop(wire.ShardRef("items", id))
	}
	preServed := t1.Stats().PeerPayloadsServed
	st, err := t2.Refresh(ctx, "items")
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "snapshot" {
		t.Fatalf("refresh mode = %q, want snapshot (peer catch-up)", st.Mode)
	}
	if got := t1.Stats().PeerPayloadsServed; got <= preServed {
		t.Fatal("catch-up snapshot was not served by the peer")
	}
	want, _ := srv.Version("items")
	if v, _ := t2.Version("items"); v != want {
		t.Fatalf("tier-2 at v%d, central at v%d", v, want)
	}
}

// TestServePeerTypedErrors pins the serving-side contract directly:
// requests a peer cannot (or must not) answer come back as TYPED
// errors the puller's failover logic dispatches on.
func TestServePeerTypedErrors(t *testing.T) {
	ctx := context.Background()
	_, _, t1, _ := startPeerTier(t, 200, 2)

	// A requester at (or past) the peer's head: Behind, never an empty
	// delta.
	req := &wire.ShardDeltaRequest{Table: "items", ShardID: 1, FromVersion: 0, Epoch: mustEpochOf(t, t1)}
	_, _, err := t1.servePeer(ctx, wire.MsgShardDeltaReq, req.Encode())
	if !errors.Is(err, wire.ErrBehind) {
		t.Fatalf("delta at head: %v, want wire.ErrBehind", err)
	}
	// A requester from a different incarnation: also Behind (fail over).
	req = &wire.ShardDeltaRequest{Table: "items", ShardID: 1, FromVersion: 0, Epoch: mustEpochOf(t, t1) + 1}
	_, _, err = t1.servePeer(ctx, wire.MsgShardDeltaReq, req.Encode())
	if !errors.Is(err, wire.ErrBehind) {
		t.Fatalf("delta across epochs: %v, want wire.ErrBehind", err)
	}
	// A shard ID the replica's partition does not hold (retired by a
	// split or merge, or not created yet here): ShardMoved, for deltas
	// and snapshots alike — never a neighbour's payload.
	req = &wire.ShardDeltaRequest{Table: "items", ShardID: 99, Epoch: mustEpochOf(t, t1)}
	_, _, err = t1.servePeer(ctx, wire.MsgShardDeltaReq, req.Encode())
	if !errors.Is(err, wire.ErrShardMoved) {
		t.Fatalf("delta for an unknown shard ID: %v, want wire.ErrShardMoved", err)
	}
	_, _, err = t1.servePeer(ctx, wire.MsgShardSnapshotReq, (&wire.ShardSnapshotRequest{Table: "items", ShardID: 99}).Encode())
	if !errors.Is(err, wire.ErrShardMoved) {
		t.Fatalf("snapshot of an unknown shard ID: %v, want wire.ErrShardMoved", err)
	}
	// Unknown table stays the classic typed error.
	req = &wire.ShardDeltaRequest{Table: "nope", ShardID: 1}
	_, _, err = t1.servePeer(ctx, wire.MsgShardDeltaReq, req.Encode())
	if !errors.Is(err, wire.ErrUnknownTable) {
		t.Fatalf("unknown table: %v", err)
	}

	// A non-serving edge answers replication requests with a typed
	// unsupported error.
	off := NewWithOptions("127.0.0.1:1", Options{})
	t.Cleanup(func() { off.Close() })
	_, _, err = off.servePeer(ctx, wire.MsgShardDeltaReq, (&wire.ShardDeltaRequest{Table: "items"}).Encode())
	if !errors.Is(err, wire.ErrUnsupported) {
		t.Fatalf("non-serving edge: %v, want wire.ErrUnsupported", err)
	}
}

// mustEpochOf reads the items epoch from an edge's published replica.
func mustEpochOf(t *testing.T, eg *Server) uint64 {
	t.Helper()
	rep := eg.replica("items")
	if rep == nil {
		t.Fatal("no items replica")
	}
	set := rep.set.Load()
	if set == nil {
		t.Fatal("no published set")
	}
	// Serving a delta for a requester AT the head version must fail
	// Behind regardless of shard, so shard 0's epoch is representative.
	return set.shards[0].state.Epoch
}

// TestPeerCapabilityAdvertised: a serving edge advertises CapPeerServe
// in its Hello response, and the puller records it on the source.
func TestPeerCapabilityAdvertised(t *testing.T) {
	ctx := context.Background()
	_, _, t1, t2 := startPeerTier(t, 200, 2)
	if err := t2.PullAll(ctx); err != nil {
		t.Fatal(err)
	}
	stats := t2.PeerStats()
	if len(stats) != 1 {
		t.Fatalf("PeerStats = %+v, want one source", stats)
	}
	if stats[0].Caps&wire.CapPeerServe == 0 {
		t.Fatalf("source caps = %#x, want CapPeerServe advertised", stats[0].Caps)
	}
	_ = t1
}
