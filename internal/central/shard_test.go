package central

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"edgeauth/internal/schema"
	"edgeauth/internal/wire"
)

// TestShardedTableBuildAndMap: a table built with Shards=4 carries four
// independently-rooted trees bound by a map that verifies under the
// server's public key and partitions the key space.
func TestShardedTableBuildAndMap(t *testing.T) {
	srv := newBatchServer(t, 400, Options{PageSize: 1024, Shards: 4})
	n, err := srv.NumShards("items")
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("NumShards = %d, want 4", n)
	}
	sm, err := srv.SignedShardMap("items")
	if err != nil {
		t.Fatal(err)
	}
	if err := sm.Verify(srv.PublicKey()); err != nil {
		t.Fatalf("shard map does not verify: %v", err)
	}
	if len(sm.Map.Shards) != 4 || len(sm.Map.Boundaries) != 3 {
		t.Fatalf("map shape: %d shards, %d boundaries", len(sm.Map.Shards), len(sm.Map.Boundaries))
	}
	seen := map[string]bool{}
	for i, shs := range sm.Map.Shards {
		if len(shs.RootDigest) == 0 {
			t.Fatalf("shard %d has empty root digest", i)
		}
		if seen[string(shs.RootDigest)] {
			t.Fatalf("shard %d repeats another shard's root digest", i)
		}
		seen[string(shs.RootDigest)] = true
	}
	// The shards' scans, concatenated in partition order, see every row
	// exactly once and in key order.
	rows := rowsIn(t, srv, "items", nil, nil)
	if len(rows) != 400 {
		t.Fatalf("cross-shard scan returned %d of 400 rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Values[0].Compare(rows[i].Values[0]) >= 0 {
			t.Fatalf("merged scan out of key order at %d", i)
		}
	}
}

// TestShardedApplyBatch: a batch spanning every shard commits each
// sub-batch on its own tree, bumps only the touched shards' versions,
// republishes the map once and signs nothing; the map is signed once,
// when first asked for.
func TestShardedApplyBatch(t *testing.T) {
	srv := newReshardServer(t, 400, 4, Options{WALDir: t.TempDir()})
	before, err := srv.SignedShardMap("items")
	if err != nil {
		t.Fatal(err)
	}

	var rows []schema.Tuple
	for i := int64(0); i < 64; i++ {
		// DefaultSpec keys are 0..399; spread new keys across the range
		// so every shard receives some.
		rows = append(rows, batchServerRow(t, 1_000_000+i*7))
	}
	// All-new keys land in the last shard only under the default split of
	// 0..399; also add keys inside earlier shards.
	rows = append(rows, batchServerRow(t, 401), batchServerRow(t, 402))
	signsBefore := srv.Stats().SignOps
	opErrs, err := srv.ApplyBatch("items", rows)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range opErrs {
		if e != nil {
			t.Fatalf("op %d: %v", i, e)
		}
	}
	signsDelta := srv.Stats().SignOps - signsBefore
	if signsDelta != 0 {
		t.Fatalf("batch paid %d signatures at the commit, want 0", signsDelta)
	}
	after, err := srv.SignedShardMap("items")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SignedShardMap("items"); err != nil {
		t.Fatal(err)
	}
	if signsDelta = srv.Stats().SignOps - signsBefore; signsDelta != 1 {
		t.Fatalf("two fetches of the new map paid %d signatures, want 1", signsDelta)
	}
	if after.Map.MapVersion != before.Map.MapVersion+1 {
		t.Fatalf("map version went %d -> %d, want one bump per batch", before.Map.MapVersion, after.Map.MapVersion)
	}
	if err := after.Verify(srv.PublicKey()); err != nil {
		t.Fatalf("republished map does not verify: %v", err)
	}
	// The touched shard's root digest changed; untouched shards kept
	// theirs (every new key is above the last boundary, so only the last
	// shard moved).
	changed := 0
	for i := range after.Map.Shards {
		if string(after.Map.Shards[i].RootDigest) != string(before.Map.Shards[i].RootDigest) {
			changed++
			if after.Map.Shards[i].Version != before.Map.Shards[i].Version+1 {
				t.Fatalf("shard %d version went %d -> %d, want one bump",
					i, before.Map.Shards[i].Version, after.Map.Shards[i].Version)
			}
		}
	}
	if changed != 1 {
		t.Fatalf("%d shard roots changed, want 1 (all new keys beyond the last boundary)", changed)
	}

	// Every inserted row landed.
	lo := schema.Int64(401)
	if n := len(rowsIn(t, srv, "items", &lo, nil)); n != len(rows) {
		t.Fatalf("found %d of %d batch rows", n, len(rows))
	}
}

// TestShardedDeleteRange: a delete spanning two shards commits on both
// and reports the combined count.
func TestShardedDeleteRange(t *testing.T) {
	srv := newBatchServer(t, 400, Options{PageSize: 1024, Shards: 4})
	sm, _ := srv.SignedShardMap("items")
	// Delete across the middle boundary: [b1-10, b1+9] where b1 is the
	// second boundary.
	b := sm.Map.Boundaries[1]
	lo, hi := schema.Int64(b.I-10), schema.Int64(b.I+9)
	n, err := srv.DeleteRange("items", &lo, &hi)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("deleted %d rows, want 20", n)
	}
	after, _ := srv.SignedShardMap("items")
	if after.Map.MapVersion != sm.Map.MapVersion+1 {
		t.Fatalf("map version went %d -> %d after delete", sm.Map.MapVersion, after.Map.MapVersion)
	}
	if n := len(rowsIn(t, srv, "items", &lo, &hi)); n != 0 {
		t.Fatalf("deleted range still holds %d rows", n)
	}
}

// TestShardRequestsRangeCheck: shard-scoped requests serve every shard
// of the partition, and an out-of-range index is a typed error.
func TestShardRequestsRangeCheck(t *testing.T) {
	srv := newBatchServer(t, 100, Options{PageSize: 1024, Shards: 2})
	epoch, _ := srv.TableEpoch("items")
	if _, err := srv.ShardSnapshot("items", 1); err != nil {
		t.Fatalf("ShardSnapshot: %v", err)
	}
	var we *wire.WireError
	if _, err := srv.ShardSnapshot("items", 7); !errors.As(err, &we) || we.Code != wire.CodeBadRequest {
		t.Fatalf("out-of-range shard snapshot: %v, want a typed bad-request", err)
	}
	if _, err := srv.ShardDelta("items", 0, 0, epoch); err != nil {
		t.Fatalf("ShardDelta: %v", err)
	}
}

// TestShardDeltaBindsShardID: a delta generated for one shard must not
// verify as a delta for another — the shard's stable ID (not its
// position, which shifts under splits and merges) rides inside the signed
// Table field.
func TestShardDeltaBindsShardID(t *testing.T) {
	srv := newBatchServer(t, 200, Options{PageSize: 1024, Shards: 2})
	epoch, _ := srv.TableEpoch("items")
	sm, err := srv.SignedShardMap("items")
	if err != nil {
		t.Fatal(err)
	}
	// A fresh key below the first boundary lands in shard 0.
	if err := srv.Insert("items", batchServerRow(t, -5)); err != nil {
		t.Fatal(err)
	}
	d, err := srv.ShardDelta("items", 0, 0, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if d.SnapshotNeeded {
		t.Fatal("expected a real delta")
	}
	if d.Table != wire.ShardRef("items", sm.Map.Shards[0].ID) {
		t.Fatalf("delta table ref = %q", d.Table)
	}
	// Re-labelling the delta for another shard breaks the signature.
	d.Table = wire.ShardRef("items", sm.Map.Shards[1].ID)
	if err := srv.PublicKey().Verify(d.Sig, d.SigPayload()); err == nil {
		t.Fatal("re-labelled shard delta still verifies")
	}
}

// TestDeleteOrdersAfterCoalescedInserts pins the group-commit parity
// fix: a delete dispatched while an insert round is in flight must
// commit after the inserts that arrived before it, so it observes (and
// can remove) their rows. Before the fix, MsgDeleteReq bypassed the
// queue and could commit ahead of earlier coalesced inserts.
func TestDeleteOrdersAfterCoalescedInserts(t *testing.T) {
	srv := newBatchServer(t, 10, Options{PageSize: 1024, MaxBatch: 8, MaxDelay: 300 * time.Millisecond})

	insertErr := make(chan error, 1)
	go func() {
		insertErr <- insertOne(srv, batchServerRow(t, 70_000))
	}()
	// Let the insert take leadership and start waiting for stragglers.
	time.Sleep(50 * time.Millisecond)

	lo, hi := schema.Int64(70_000), schema.Int64(70_000)
	start := time.Now()
	n, err := srv.enqueueDelete(context.Background(), "items", &lo, &hi)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-insertErr; err != nil {
		t.Fatalf("insert failed: %v", err)
	}
	if n != 1 {
		t.Fatalf("delete saw %d rows, want 1 — it committed ahead of the earlier insert", n)
	}
	// The delete also must not have slept out the full MaxDelay: its
	// arrival signals the waiting leader.
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("delete waited %v; a queued delete should release the leader early", elapsed)
	}

	// And the row is gone.
	if n := len(rowsIn(t, srv, "items", &lo, &hi)); n != 0 {
		t.Fatalf("row survived its delete")
	}
}

// TestConcurrentMixedOpsOrdered hammers the front door with interleaved
// inserts and deletes under -race; every op gets exactly one result and
// the table stays consistent (no row both present and delete-counted).
func TestConcurrentMixedOpsOrdered(t *testing.T) {
	srv := newBatchServer(t, 10, Options{PageSize: 1024, MaxBatch: 16, MaxDelay: 2 * time.Millisecond})
	const workers = 24
	var wg sync.WaitGroup
	deleted := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := int64(80_000 + w)
			if err := insertOne(srv, batchServerRow(t, key)); err != nil {
				t.Errorf("insert %d: %v", w, err)
				return
			}
			lo, hi := schema.Int64(key), schema.Int64(key)
			n, err := srv.enqueueDelete(context.Background(), "items", &lo, &hi)
			if err != nil {
				t.Errorf("delete %d: %v", w, err)
				return
			}
			deleted[w] = n
		}(w)
	}
	wg.Wait()
	for w, n := range deleted {
		if n != 1 {
			t.Fatalf("worker %d: delete saw %d rows, want 1 (its own insert happened-before)", w, n)
		}
	}
	lo, hi := schema.Int64(80_000), schema.Int64(80_000+workers)
	if n := len(rowsIn(t, srv, "items", &lo, &hi)); n != 0 {
		t.Fatalf("%d rows survived their deletes", n)
	}
}
