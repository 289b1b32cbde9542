package edge

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"edgeauth/internal/central"
	"edgeauth/internal/shardmap"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
	"edgeauth/internal/wire"
)

// Regression tests for the snapshot trust gap: the edge verified deltas
// (verifyDelta) and shard maps (fetchVerifiedMap) but installed pulled
// snapshots without any signature check, so a compromised network path
// could seed a replica with pages the central never signed. The pull
// paths now anchor every snapshot the map pins before install
// (verifySnapshot) and cross-check each aligned store's root signature
// against the signed map it is published with (verifyAlignedStores).

// TestVerifySnapshotRejectsForgedRootSig: a snapshot the map pins is
// checked before install; one it cannot pin yet — the central's snapshot
// of a commit that raced the map — is installed unchecked, and a forged
// root signature on it must then stop the publish: verifyAlignedStores
// refuses the store, and the table is never published.
func TestVerifySnapshotRejectsForgedRootSig(t *testing.T) {
	ctx := context.Background()
	srv, _ := startCentral(t, 60)

	// The front serves the map of version v and then, after a commit,
	// the snapshot of v+1 with its root signature flipped: the snapshot
	// runs ahead of the map it was pulled with, so it has no pin.
	staleMap, err := srv.SignedShardMap("items")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Insert("items", freshRow(t, 500_000)); err != nil {
		t.Fatal(err)
	}
	fake := newFakeCentral(srv)
	var mapsServed atomic.Int64
	front := serveHandler(t, func(ctx context.Context, mt wire.MsgType, body, out []byte) (wire.MsgType, []byte, error) {
		switch mt {
		case wire.MsgShardMapReq:
			if mapsServed.Add(1) == 1 {
				return wire.MsgShardMapResp, staleMap.Encode(), nil
			}
		case wire.MsgShardSnapshotReq:
			snap, err := srv.ShardSnapshot("items", 0)
			if err != nil {
				return 0, nil, err
			}
			snap.RootSig = append([]byte(nil), snap.RootSig...)
			snap.RootSig[0] ^= 0x40
			return wire.MsgSnapshotResp, snap.Encode(), nil
		}
		return fake.dispatch(ctx, mt, body, out)
	})
	eg := New(front)
	t.Cleanup(func() { eg.Close() })
	err = eg.Pull(ctx, "items")
	if err == nil || !strings.Contains(err.Error(), "root signature does not authenticate") {
		t.Fatalf("pull of a forged unpinned snapshot: %v, want the aligned-store check to refuse it", err)
	}
	if n := eg.Stats().SnapshotsInstalled; n != 1 {
		t.Fatalf("%d snapshots installed, want 1: the unpinned snapshot is installed before the check", n)
	}
	if eg.replica("items") != nil {
		t.Fatal("a store with a forged root signature was published")
	}
}

func TestVerifySnapshotHonorsPinnedDigest(t *testing.T) {
	ctx := context.Background()
	srv, addr := startCentral(t, 60)
	eg := New(addr)
	t.Cleanup(func() { eg.Close() })
	if err := eg.PullAll(ctx); err != nil {
		t.Fatal(err)
	}
	snap, err := srv.ShardSnapshot("items", 0)
	if err != nil {
		t.Fatal(err)
	}
	u, err := srv.PublicKey().Recover(sig.Signature(snap.RootSig))
	if err != nil {
		t.Fatal(err)
	}
	if err := eg.verifySnapshot(ctx, snap, u); err != nil {
		t.Fatalf("snapshot rejected against its own pinned digest: %v", err)
	}
	wrong := append([]byte(nil), u...)
	wrong[0] ^= 1
	if err := eg.verifySnapshot(ctx, snap, wrong); err == nil {
		t.Fatal("snapshot accepted against a different pinned digest")
	}
}

func TestVerifyAlignedStoresBindsStoresToMap(t *testing.T) {
	ctx := context.Background()
	_, addr := startCentralOpts(t, 200, central.Options{PageSize: 1024, Shards: 2})
	eg := New(addr)
	t.Cleanup(func() { eg.Close() })
	if err := eg.PullAll(ctx); err != nil {
		t.Fatal(err)
	}
	set := eg.replica("items").set.Load()
	stores := make([]*storage.PageStore, len(set.shards))
	for i, sr := range set.shards {
		stores[i] = sr.store
	}
	if err := eg.verifyAlignedStores(ctx, set.smap, stores); err != nil {
		t.Fatalf("genuine aligned stores rejected: %v", err)
	}
	// A map pinning a different root digest for shard 0 must be refused:
	// publishing it would pair signed routing metadata with shard data
	// the central never vouched for.
	d := append([]byte(nil), set.smap.Map.Shards[0].RootDigest...)
	d[0] ^= 1
	tampered := &shardmap.Signed{Map: set.smap.Map.Clone(), Sig: set.smap.Sig}
	tampered.Map.Shards[0].RootDigest = d
	if err := eg.verifyAlignedStores(ctx, tampered, stores); err == nil {
		t.Fatal("stores accepted against a map pinning a different root digest")
	}
}

// TestSnapshotNeededMarkerNamesItsKey: a central that signs under key
// version 7 from its start answers a replica its changelog no longer
// covers with a signed SnapshotNeeded marker. The edge resolves the key a
// marker names by version, so the marker must name 7 — not 0 — to
// verify, and the refresh must fall back to a snapshot.
func TestSnapshotNeededMarkerNamesItsKey(t *testing.T) {
	ctx := context.Background()
	key := sig.MustGenerate(sig.SchemeEd25519, 0)
	key.SetValidity(7, 0, 0)
	srv, addr := startCentralKey(t, 60, central.Options{PageSize: 1024, DeltaRetention: 1}, key)
	eg := New(addr)
	t.Cleanup(func() { eg.Close() })
	if err := eg.PullAll(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int64{500_000, 500_001} {
		if err := srv.Insert("items", freshRow(t, id)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := eg.Refresh(ctx, "items")
	if err != nil {
		t.Fatalf("refresh past the retained changelog: %v", err)
	}
	if st.Mode != "snapshot" {
		t.Fatalf("refresh mode %q, want snapshot", st.Mode)
	}
	want, _ := srv.Version("items")
	if v, _ := eg.Version("items"); v != want {
		t.Fatalf("edge at v%d, central at v%d", v, want)
	}
	if n := auditSet(t, eg, "after the snapshot fallback"); n != 62 {
		t.Fatalf("audited %d tuples, want 62", n)
	}
}

// TestEdgeFollowsCentralRestartUnderNewKey: the central restarts under a
// new key that carries the same version. The edge's registry still holds
// the old key under that version, so the first check fails, the edge
// fetches the central's current key once, and the refresh goes through:
// the replica is reinstalled from the new incarnation and its answers
// verify under the new key.
func TestEdgeFollowsCentralRestartUnderNewKey(t *testing.T) {
	ctx := context.Background()
	srv, _ := startCentral(t, 120)
	fake := newFakeCentral(srv)
	front := fake.serve(t)
	eg := New(front)
	if err := eg.PullAll(ctx); err != nil {
		t.Fatal(err)
	}
	edgeAddr := startEdge(t, eg)
	before := verifiedCount(t, edgeAddr, front, 100)
	if before != 20 {
		t.Fatalf("verified rows before the restart = %d, want 20", before)
	}

	restarted, _ := startCentralKey(t, 120, central.Options{PageSize: 1024}, sig.MustGenerate(sig.SchemeRSAMerkle, 512))
	if restarted.PublicKey().Version != srv.PublicKey().Version {
		t.Fatal("the restarted central names another key version")
	}
	fake.backend.Store(restarted)
	st, err := eg.Refresh(ctx, "items")
	if err != nil {
		t.Fatalf("refresh after the restart: %v", err)
	}
	if st.Mode != "snapshot" {
		t.Fatalf("refresh mode %q, want snapshot (a new incarnation)", st.Mode)
	}
	if n := verifiedCount(t, edgeAddr, front, 100); n != before {
		t.Fatalf("verified rows after the restart = %d, want %d", n, before)
	}
}
