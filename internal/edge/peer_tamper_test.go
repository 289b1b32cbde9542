package edge

import (
	"context"
	"sync/atomic"
	"testing"

	"edgeauth/internal/central"
	"edgeauth/internal/rpc"
	"edgeauth/internal/tamper"
	"edgeauth/internal/wire"
)

// attackByName pulls one attack out of the malicious-relay catalogue.
func attackByName(t *testing.T, name string) tamper.PeerAttack {
	t.Helper()
	for _, a := range tamper.PeerAttacks() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no peer attack %q", name)
	return tamper.PeerAttack{}
}

// startHostilePeerTier is startPeerTier with tier-2's upstream a relay
// proxy in front of tier-1: it passes tier-1's answers on untouched
// until arm is called, and through the named relay attack after.
func startHostilePeerTier(t *testing.T, attack string) (srv *central.Server, centralAddr string, t1, t2 *Server, arm func()) {
	t.Helper()
	a := attackByName(t, attack)
	var armed atomic.Bool
	srv, centralAddr, t1, t2 = startPeerTierBehind(t, 300, 2, serverKey(t), func(honest rpc.Handler) rpc.Handler {
		hostile := tamper.WrapPeer(honest, a)
		return func(ctx context.Context, mt wire.MsgType, body, out []byte) (wire.MsgType, []byte, error) {
			if armed.Load() {
				return hostile(ctx, mt, body, out)
			}
			return honest(ctx, mt, body, out)
		}
	})
	return srv, centralAddr, t1, t2, func() { armed.Store(true) }
}

// TestMaliciousPeerBitFlipDelta: a relay that corrupts delta bodies in
// transit. Deltas are whole-body signed by the central, so the
// downstream rejects every flipped payload, scores the peer, and heals
// via central fallback in the same round — the attack costs latency,
// never correctness.
func TestMaliciousPeerBitFlipDelta(t *testing.T) {
	ctx := context.Background()
	srv, centralAddr, t1, t2, arm := startHostilePeerTier(t, "bit-flip-delta")
	if err := t2.PullAll(ctx); err != nil {
		t.Fatal(err)
	}
	auditRows(t, t1, "tier-1, bootstrap", 300)
	auditRows(t, t2, "tier-2, bootstrap", 300)
	arm()

	if err := srv.Insert("items", freshRow(t, 500_000)); err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Refresh(ctx, "items"); err != nil {
		t.Fatal(err)
	}
	auditRows(t, t1, "tier-1, round 1", 301)
	st, err := t2.Refresh(ctx, "items")
	if err != nil {
		t.Fatalf("refresh against corrupting peer: %v", err)
	}
	auditRows(t, t2, "tier-2, round 1", 301)
	if st.Mode != "delta" {
		t.Fatalf("refresh mode = %q, want delta (healed from central)", st.Mode)
	}
	if got := t2.Stats().PeerFailovers; got == 0 {
		t.Fatal("corrupted relay was not scored as a failover")
	}
	want, _ := srv.Version("items")
	if v, _ := t2.Version("items"); v != want {
		t.Fatalf("tier-2 at v%d, central at v%d", v, want)
	}
	if n := verifiedCount(t, startEdge(t, t2), centralAddr, 499_999); n != 1 {
		t.Fatalf("verified rows = %d, want 1", n)
	}
}

// TestMaliciousPeerReplayStaleSnapshot: a relay that freezes its
// snapshot answers, trying to wind a bootstrapping edge back to an old
// (authentically signed) state. The downstream binds every peer
// snapshot to the exact pin of its central-verified shard map, so the
// replay is rejected and the bootstrap heals from the central.
func TestMaliciousPeerReplayStaleSnapshot(t *testing.T) {
	ctx := context.Background()
	srv, centralAddr, t1, t2, arm := startHostilePeerTier(t, "replay-stale-snapshot")
	arm()

	// Prime the replay: a first downstream bootstrap captures the
	// current (soon to be stale) snapshot bodies.
	if err := t2.PullAll(ctx); err != nil {
		t.Fatal(err)
	}
	auditRows(t, t1, "tier-1, bootstrap", 300)
	auditRows(t, t2, "tier-2, bootstrap", 300)

	// The table moves on and tier-1 keeps up.
	if err := srv.Insert("items", freshRow(t, 500_000)); err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Refresh(ctx, "items"); err != nil {
		t.Fatal(err)
	}
	auditRows(t, t1, "tier-1, round 1", 301)

	// A late joiner bootstraps through the compromised relay: the
	// replayed body fails the map pin for the shard that moved, and the
	// central supplies that shard instead.
	late := NewWithOptions(centralAddr, Options{Upstreams: t2.opts.Upstreams})
	t.Cleanup(func() { late.Close() })
	if err := late.PullAll(ctx); err != nil {
		t.Fatalf("bootstrap against replaying peer: %v", err)
	}
	auditRows(t, late, "late edge, bootstrap in round 1", 301)
	if got := late.Stats().PeerFailovers; got == 0 {
		t.Fatal("replayed snapshot was not scored as a failover")
	}
	want, _ := srv.Version("items")
	if v, _ := late.Version("items"); v != want {
		t.Fatalf("late edge at v%d, central at v%d", v, want)
	}
	if n := verifiedCount(t, startEdge(t, late), centralAddr, 499_999); n != 1 {
		t.Fatalf("verified rows = %d, want 1", n)
	}
}

// TestMaliciousPeerWrongShardRelay: a relay that answers one shard's
// request with another shard's (authentically signed) payload. The
// signed delta names its shard ref in the body and a snapshot must
// recover to the requested shard's pinned digest, so the swap is
// rejected either way and the round heals from the central.
func TestMaliciousPeerWrongShardRelay(t *testing.T) {
	ctx := context.Background()
	srv, centralAddr, t1, t2, arm := startHostilePeerTier(t, "wrong-shard-relay")
	if err := t2.PullAll(ctx); err != nil {
		t.Fatal(err)
	}
	auditRows(t, t1, "tier-1, bootstrap", 300)
	auditRows(t, t2, "tier-2, bootstrap", 300)
	arm()

	// Dirty BOTH shards so the refresh requests two different refs —
	// giving the relay a payload to cross-serve.
	if err := srv.Insert("items", freshRow(t, -10)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Insert("items", freshRow(t, 500_000)); err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Refresh(ctx, "items"); err != nil {
		t.Fatal(err)
	}
	auditRows(t, t1, "tier-1, round 1", 302)
	st, err := t2.Refresh(ctx, "items")
	if err != nil {
		t.Fatalf("refresh against cross-serving peer: %v", err)
	}
	auditRows(t, t2, "tier-2, round 1", 302)
	if st.ShardsRefreshed != 2 {
		t.Fatalf("refreshed %d shards, want 2", st.ShardsRefreshed)
	}
	if got := t2.Stats().PeerFailovers; got == 0 {
		t.Fatal("wrong-shard payload was not scored as a failover")
	}
	want, _ := srv.Version("items")
	if v, _ := t2.Version("items"); v != want {
		t.Fatalf("tier-2 at v%d, central at v%d", v, want)
	}
	// Both commits visible and verified through scatter-gather.
	if n := verifiedCount(t, startEdge(t, t2), centralAddr, 499_999); n != 1 {
		t.Fatalf("verified high rows = %d, want 1", n)
	}
}
