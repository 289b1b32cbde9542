package edge

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"edgeauth/internal/central"
	"edgeauth/internal/schema"
	"edgeauth/internal/storage"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/verify"
	"edgeauth/internal/wire"
)

// TestShardedRefreshAndPull covers the per-shard replication path and
// pins its wire traffic: a bootstrap is the replication loop started
// from no stores, so PullAll and a first RefreshAll are the same walk —
// one map and one snapshot per shard, ending on byte-identical sets — a
// commit ships only the touched shard's delta, an idle tick only the
// map, and the published set's map always pins exactly the shard
// versions it is served with.
func TestShardedRefreshAndPull(t *testing.T) {
	ctx := context.Background()
	srv, addr := startCentralOpts(t, 400, central.Options{PageSize: 1024, Shards: 4})

	// served reports what the central served since the last call.
	last := srv.Stats()
	served := func() (maps, snapshots, deltas uint64) {
		now := srv.Stats()
		defer func() { last = now }()
		return now.ShardMapsServed - last.ShardMapsServed, now.SnapshotsServed - last.SnapshotsServed, now.DeltasServed - last.DeltasServed
	}

	boots := map[string]func(*Server) error{
		"PullAll": func(eg *Server) error { return eg.PullAll(ctx) },
		"RefreshAll": func(eg *Server) error {
			stats, err := eg.RefreshAll(ctx)
			if err == nil && (len(stats) != 1 || stats[0].Mode != "snapshot" || stats[0].ShardsRefreshed != 4) {
				err = fmt.Errorf("bootstrapping RefreshAll reported %+v, want one 4-shard snapshot", stats)
			}
			return err
		},
	}
	edges := make(map[string]*Server)
	for name, boot := range boots {
		eg := New(addr)
		t.Cleanup(func() { eg.Close() })
		if err := boot(eg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if maps, snaps, deltas := served(); maps != 1 || snaps != 4 || deltas != 0 {
			t.Fatalf("%s bootstrap cost %d maps, %d snapshots, %d deltas; want 1, 4, 0", name, maps, snaps, deltas)
		}
		if st := eg.Stats(); st.SnapshotsInstalled != 4 || st.ReshardsApplied != 0 || st.SigCacheMisses != 5 {
			t.Fatalf("%s bootstrap: %d snapshots installed, %d reshards applied, %d signature checks; want 4, 0, 5",
				name, st.SnapshotsInstalled, st.ReshardsApplied, st.SigCacheMisses)
		}
		if n, _ := eg.NumShards("items"); n != 4 {
			t.Fatalf("%s replicated %d shards, want 4", name, n)
		}
		if got := auditSet(t, eg, "refresh 1 ("+name+")"); got != 400 {
			t.Fatalf("%s: audited %d tuples, want 400", name, got)
		}
		edges[name] = eg
	}
	eg, other := edges["PullAll"], edges["RefreshAll"]
	set, otherSet := eg.replica("items").set.Load(), other.replica("items").set.Load()
	if !bytes.Equal(set.smapBytes, otherSet.smapBytes) {
		t.Fatal("PullAll and RefreshAll bootstraps published different signed maps")
	}
	for i, sr := range set.shards {
		o := otherSet.shards[i].state
		if sr.state.Version != o.Version || sr.state.Epoch != o.Epoch || !bytes.Equal(sr.state.RootSig, o.RootSig) {
			t.Fatalf("shard %d differs between the two bootstraps: v%d/epoch %d vs v%d/epoch %d", i, sr.state.Version, sr.state.Epoch, o.Version, o.Epoch)
		}
	}

	// One insert dirties one shard; the refresh ships one shard delta.
	if err := srv.Insert("items", freshRow(t, 500_000)); err != nil {
		t.Fatal(err)
	}
	stats, err := eg.RefreshAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Mode != "delta" || stats[0].ShardsRefreshed != 1 {
		t.Fatalf("refresh after one insert: %+v, want delta/1", stats)
	}
	if got := auditSet(t, eg, "refresh 2"); got != 401 {
		t.Fatalf("refresh 2: audited %d tuples, want 401", got)
	}
	if maps, snaps, deltas := served(); maps != 1 || snaps != 0 || deltas != 1 {
		t.Fatalf("refresh after one insert cost %d maps, %d snapshots, %d deltas; want 1, 0, 1", maps, snaps, deltas)
	}

	// The published set is internally consistent: map pins == pinned
	// shard snapshot versions.
	set = eg.replica("items").set.Load()
	for i, sr := range set.shards {
		if set.smap.Map.Shards[i].Version != sr.state.Version {
			t.Fatalf("shard %d: map pins v%d, snapshot at v%d", i, set.smap.Map.Shards[i].Version, sr.state.Version)
		}
	}

	// Idle tick: noop, and only the map crosses the wire.
	stats, err = eg.RefreshAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Mode != "noop" || stats[0].ShardsRefreshed != 0 {
		t.Fatalf("idle refresh: %+v, want noop/0", stats)
	}
	auditSet(t, eg, "refresh 3")
	if maps, snaps, deltas := served(); maps != 1 || snaps != 0 || deltas != 0 {
		t.Fatalf("idle refresh cost %d maps, %d snapshots, %d deltas; want 1, 0, 0", maps, snaps, deltas)
	}
}

// TestShardedRefreshRecoversFromPartialFailure pins the wedge fix: a
// refresh that applied a shard's delta but failed before republishing
// the set leaves the store AHEAD of the published set. The next refresh
// must negotiate from the store's head (not the pinned set) and
// converge, instead of requesting a delta the store rejects forever.
func TestShardedRefreshRecoversFromPartialFailure(t *testing.T) {
	ctx := context.Background()
	srv, addr := startCentralOpts(t, 200, central.Options{PageSize: 1024, Shards: 2})
	eg := New(addr)
	t.Cleanup(func() { eg.Close() })
	if err := eg.PullAll(ctx); err != nil {
		t.Fatal(err)
	}
	auditSet(t, eg, "refresh 1")

	// Commit to shard 1 (key above the boundary).
	if err := srv.Insert("items", freshRow(t, 500_000)); err != nil {
		t.Fatal(err)
	}

	// Simulate the partial failure: apply shard 1's delta directly into
	// its store WITHOUT republishing the tableSet — exactly the state a
	// refresh error after applyDelta leaves behind.
	rep := eg.replica("items")
	cur := rep.set.Load()
	head := cur.shards[1].state
	d, err := srv.ShardDelta("items", 1, head.Version, head.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if d.SnapshotNeeded {
		t.Fatal("expected a shard delta")
	}
	if err := applyDelta(cur.shards[1].store, d, wire.ShardRef("items", cur.smap.Map.Shards[1].ID)); err != nil {
		t.Fatal(err)
	}
	// Sanity: the store is now ahead of the published set.
	if hs, _ := storeState(cur.shards[1].store); hs.Version != head.Version+1 {
		t.Fatalf("store head at v%d, want v%d", hs.Version, head.Version+1)
	}

	// The next refresh must converge (publishing the set the store is
	// already at), not wedge on a version mismatch.
	st, err := eg.Refresh(ctx, "items")
	if err != nil {
		t.Fatalf("refresh after partial failure wedged: %v", err)
	}
	if st.Mode == "snapshot" {
		t.Fatalf("recovery forced a snapshot; a set republish sufficed (mode=%q)", st.Mode)
	}
	if got := auditSet(t, eg, "refresh 2"); got != 201 {
		t.Fatalf("refresh 2: audited %d tuples, want 201", got)
	}
	set := rep.set.Load()
	for i, sr := range set.shards {
		if set.smap.Map.Shards[i].Version != sr.state.Version {
			t.Fatalf("shard %d: map pins v%d, snapshot at v%d", i, set.smap.Map.Shards[i].Version, sr.state.Version)
		}
	}
	cv, err := srv.Version("items")
	if err != nil {
		t.Fatal(err)
	}
	if ev, _ := eg.Version("items"); ev != cv {
		t.Fatalf("edge at map v%d, central at v%d", ev, cv)
	}

	// And a further ordinary commit still refreshes normally.
	if err := srv.Insert("items", freshRow(t, 500_001)); err != nil {
		t.Fatal(err)
	}
	if st, err := eg.Refresh(ctx, "items"); err != nil || st.Mode != "delta" {
		t.Fatalf("post-recovery refresh: mode=%q err=%v", st.Mode, err)
	}
	if got := auditSet(t, eg, "refresh 3"); got != 202 {
		t.Fatalf("refresh 3: audited %d tuples, want 202", got)
	}
}

// TestRefreshRacingSplitKeepsShardsApart is the deterministic form of the
// rebalance soak's storage faults. A refresh fetches its map just before
// a split shifts the surviving shards one position to the right, then
// asks for the delta of the shard it knows as position 2. Addressed by
// position, the central answered with the history of whichever shard sat
// there now — authentically signed, covered by that shard's changelog —
// and the edge applied it to another shard's store; a later delta of the
// right shard then landed on the spliced pages and the set published with
// tree nodes pointing into a neighbour's heap. Addressed by stable ID the
// request reaches the shard it names or a typed ShardMoved.
func TestRefreshRacingSplitKeepsShardsApart(t *testing.T) {
	ctx := context.Background()
	key := serverKey(t)
	srv, addr := startCentralKey(t, 300, central.Options{PageSize: 1024, Shards: 3}, key)
	eg := New(addr)
	t.Cleanup(func() { eg.Close() })
	if err := eg.PullAll(ctx); err != nil {
		t.Fatal(err)
	}
	auditSet(t, eg, "refresh 1")

	rows := 300
	next := int64(1000)
	commitOnLast := func() {
		t.Helper()
		batch := make([]schema.Tuple, 8)
		for i := range batch {
			batch[i] = freshRow(t, next)
			next++
		}
		opErrs, err := srv.ApplyBatch("items", batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range opErrs {
			if e != nil {
				t.Fatal(e)
			}
		}
		rows += len(batch)
	}

	// [A,B,C]: C moves ahead of the edge, and the refresh takes its map.
	commitOnLast()
	smOld, err := srv.SignedShardMap("items")
	if err != nil {
		t.Fatal(err)
	}
	// B moves too, then A splits: B slides into position 2, C to 3.
	for _, k := range []int64{150, 160, 170} {
		lo, hi := schema.Int64(k), schema.Int64(k)
		if n, err := srv.DeleteRange("items", &lo, &hi); err != nil || n != 1 {
			t.Fatalf("delete %d: n=%d err=%v", k, n, err)
		}
		rows--
	}
	if _, err := srv.SplitShard(ctx, "items", 0, nil); err != nil {
		t.Fatal(err)
	}

	// The refresh that raced the split resumes with its pre-split map.
	cur := eg.replica("items").set.Load()
	stores := make([]*storage.PageStore, len(cur.shards))
	for i, sr := range cur.shards {
		stores[i] = sr.store
	}
	// (Errors up to the final scan are reported without stopping, so a
	// regression shows what the edge ends up serving, not only the first
	// refresh that noticed.)
	if _, err := eg.alignShards(ctx, "items", smOld, stores, shardIDs(cur.smap)); err != nil {
		t.Errorf("raced refresh: %v", err)
	}
	for round := 0; round < 4; round++ {
		commitOnLast()
		if _, err := eg.Refresh(ctx, "items"); err != nil {
			t.Errorf("refresh round %d: %v", round, err)
		}
		if got := auditSet(t, eg, fmt.Sprintf("refresh %d", round+2)); got != rows {
			t.Errorf("refresh %d: audited %d tuples, want %d", round+2, got, rows)
		}
	}

	// Every shard of the published set answers a verified full scan.
	sch, _ := eg.Schema("items")
	ver := &verify.Verifier{Key: srv.PublicKey(), Acc: srv.Accumulator(), Schema: sch}
	sm, err := eg.SignedShardMap("items")
	if err != nil {
		t.Fatal(err)
	}
	if len(sm.Map.Shards) != 4 {
		t.Fatalf("edge serves %d shards, want 4", len(sm.Map.Shards))
	}
	got := 0
	for i := range sm.Map.Shards {
		rs, w, _, err := eg.RunShardQuery(ctx, "items", uint32(i), vbtree.Query{})
		if err != nil {
			t.Fatalf("honest edge, shard %d: %v", i, err)
		}
		if err := ver.VerifyAnchored(rs, w, sm.Map.Shards[i].RootDigest); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		got += len(rs.Tuples)
	}
	if got != rows {
		t.Fatalf("shards hold %d rows, want %d", got, rows)
	}
}
