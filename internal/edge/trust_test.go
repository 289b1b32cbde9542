package edge

import (
	"context"
	"testing"

	"edgeauth/internal/central"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
)

// Regression tests for the snapshot trust gap: the edge verified deltas
// (verifyDelta) and shard maps (fetchVerifiedMap) but installed pulled
// snapshots without any signature check, so a compromised network path
// could seed a replica with pages the central never signed. The pull
// paths now anchor every snapshot before install (verifySnapshot) and
// cross-check each aligned store's root signature against the signed
// map it is published with (verifyAlignedStores).

func TestVerifySnapshotRejectsForgedRootSig(t *testing.T) {
	ctx := context.Background()
	srv, addr := startCentral(t, 60)
	eg := New(addr)
	t.Cleanup(func() { eg.Close() })
	// A genuine pull passes through verifySnapshot end to end.
	if err := eg.PullAll(ctx); err != nil {
		t.Fatal(err)
	}
	snap, err := srv.ShardSnapshot("items", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := eg.verifySnapshot(ctx, snap, nil); err != nil {
		t.Fatalf("genuine snapshot rejected: %v", err)
	}
	forged := *snap
	forged.RootSig = append([]byte(nil), snap.RootSig...)
	forged.RootSig[0] ^= 0x40
	if err := eg.verifySnapshot(ctx, &forged, nil); err == nil {
		t.Fatal("snapshot with a tampered root signature accepted")
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
	tampered := set.smap.Clone()
	tampered.Map.Shards[0].RootDigest = d
	if err := eg.verifyAlignedStores(ctx, tampered, stores); err == nil {
		t.Fatal("stores accepted against a map pinning a different root digest")
	}
}
