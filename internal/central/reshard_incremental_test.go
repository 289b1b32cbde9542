package central

import (
	"context"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"edgeauth/internal/schema"
	"edgeauth/internal/wal"
)

// TestSplitBoundaryFollowsLoadSketch pins the detector-driven boundary:
// a median split of a shard whose load sketch is warm cuts at the
// observed *load* median, not the key-count midpoint, so a split moves
// half the traffic even when the traffic concentrates in a sliver of
// the key range.
func TestSplitBoundaryFollowsLoadSketch(t *testing.T) {
	srv := newReshardServer(t, 200, 2, Options{})
	tb, err := srv.table("items")
	if err != nil {
		t.Fatal(err)
	}
	part := tb.part.Load()

	// Shard 1 holds keys ~100..199; concentrate the observed load in its
	// top decile. 40 observations of keys 180..199: the sorted sample's
	// median is 190.
	for pass := 0; pass < 2; pass++ {
		for k := int64(180); k < 200; k++ {
			part.shards[1].sketch.observe(schema.Int64(k))
		}
	}
	if _, err := srv.SplitShard(context.Background(), "items", 1, nil); err != nil {
		t.Fatal(err)
	}
	auditShards(t, srv, "items", "split 1")
	sm, err := srv.SignedShardMap("items")
	if err != nil {
		t.Fatal(err)
	}
	if got := sm.Map.Boundaries[1]; got.Compare(schema.Int64(190)) != 0 {
		t.Fatalf("warm-sketch split cut at %v; want the load median 190", got)
	}

	// Shard 0's sketch never saw traffic: its median split must fall
	// back to the key-count midpoint, strictly inside (0, old boundary).
	oldBoundary := sm.Map.Boundaries[0]
	if _, err := srv.SplitShard(context.Background(), "items", 0, nil); err != nil {
		t.Fatal(err)
	}
	if got := auditShards(t, srv, "items", "split 2"); got != 200 {
		t.Fatalf("split 2: audited %d tuples, want 200", got)
	}
	sm2, err := srv.SignedShardMap("items")
	if err != nil {
		t.Fatal(err)
	}
	b := sm2.Map.Boundaries[0]
	if b.Compare(schema.Int64(0)) <= 0 || b.Compare(oldBoundary) >= 0 {
		t.Fatalf("cold-sketch split cut at %v; want a key median inside (0, %v)", b, oldBoundary)
	}
	if b.Compare(schema.Int64(180)) >= 0 {
		t.Fatalf("cold-sketch split cut at %v; the load-median path must not apply to an unobserved shard", b)
	}
}

// TestReshardCheckpointTruncatesHistory drives a long split/merge chain
// with meta-log checkpointing enabled and verifies the checkpoint
// contract: replay (ReshardHistory) resumes after the newest
// checkpoint instead of the table's first transition, and the
// checkpoint's captured partition state matches the live signed map —
// including after the server is closed and the log is reopened cold.
func TestReshardCheckpointTruncatesHistory(t *testing.T) {
	dir := t.TempDir()
	srv := newReshardServer(t, 400, 2, Options{WALDir: dir, ReshardCheckpointEvery: 2})
	ctx := context.Background()

	// Four transitions; checkpoints land after the 2nd and 4th.
	if _, err := srv.SplitShard(ctx, "items", 0, nil); err != nil {
		t.Fatal(err)
	}
	auditShards(t, srv, "items", "split 1")
	if _, err := srv.SplitShard(ctx, "items", 2, nil); err != nil {
		t.Fatal(err)
	}
	auditShards(t, srv, "items", "split 2")
	if _, err := srv.MergeShards(ctx, "items", 0); err != nil {
		t.Fatal(err)
	}
	auditShards(t, srv, "items", "merge 3")
	if _, err := srv.SplitShard(ctx, "items", 1, nil); err != nil {
		t.Fatal(err)
	}
	auditShards(t, srv, "items", "split 4")

	hist, err := srv.ReshardHistory("items")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 0 {
		t.Fatalf("history replays %d transitions past a fresh checkpoint; want 0", len(hist))
	}
	cp, err := srv.MetaCheckpoint("items")
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no partition checkpoint after 4 transitions with ReshardCheckpointEvery=2")
	}
	sm, err := srv.SignedShardMap("items")
	if err != nil {
		t.Fatal(err)
	}
	if cp.MapEpoch != sm.Map.MapEpoch {
		t.Fatalf("checkpoint epoch %d, live map epoch %d", cp.MapEpoch, sm.Map.MapEpoch)
	}
	if len(cp.ShardIDs) != len(sm.Map.Shards) {
		t.Fatalf("checkpoint has %d shards, live map %d", len(cp.ShardIDs), len(sm.Map.Shards))
	}
	for i, id := range cp.ShardIDs {
		if id != sm.Map.Shards[i].ID {
			t.Fatalf("checkpoint shard %d has ID %d, live map %d", i, id, sm.Map.Shards[i].ID)
		}
		if id >= cp.NextShardID {
			t.Fatalf("checkpoint allocator watermark %d does not cover live shard ID %d", cp.NextShardID, id)
		}
	}
	if len(cp.Boundaries) != len(sm.Map.Boundaries) {
		t.Fatalf("checkpoint has %d boundaries, live map %d", len(cp.Boundaries), len(sm.Map.Boundaries))
	}
	for i, b := range cp.Boundaries {
		if b.Compare(sm.Map.Boundaries[i]) != 0 {
			t.Fatalf("checkpoint boundary %d = %v, live map %v", i, b, sm.Map.Boundaries[i])
		}
	}

	// A fifth transition lands after the checkpoint and replays again.
	if _, err := srv.MergeShards(ctx, "items", 0); err != nil {
		t.Fatal(err)
	}
	if got := auditShards(t, srv, "items", "merge 5"); got != 400 {
		t.Fatalf("merge 5: audited %d tuples, want 400", got)
	}
	hist, err = srv.ReshardHistory("items")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1 {
		t.Fatalf("history replays %d transitions after the checkpoint; want exactly the 5th", len(hist))
	}
	if hist[0].MapEpoch != sm.Map.MapEpoch+1 {
		t.Fatalf("replayed transition commits epoch %d; want %d", hist[0].MapEpoch, sm.Map.MapEpoch+1)
	}

	// Cold reopen: the checkpoint must decode straight off the closed
	// log file, with the same state a restarting replayer would seed.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	cold, err := wal.LastCheckpoint(filepath.Join(dir, "items.meta.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if cold == nil || cold.MapEpoch != cp.MapEpoch || cold.NextShardID != cp.NextShardID {
		t.Fatalf("cold reopen checkpoint = %+v; want the live checkpoint %+v", cold, cp)
	}
}

// TestReshardStallBoundedOnLargeShard is the incremental-transition
// soak: batches commit continuously while a deliberately large shard
// splits. The build must run outside the partition lock (writers make
// progress throughout), no tuple may be lost or duplicated across the
// snapshot/tail handoff, and the in-lock replay must be O(tail bound),
// never O(shard) — the whole point of the two-phase pipeline.
func TestReshardStallBoundedOnLargeShard(t *testing.T) {
	const rows = 8192
	srv := newReshardServer(t, rows, 1, Options{})
	ctx := context.Background()

	stop := make(chan struct{})
	var inserted atomic.Int64
	// started counts down as each writer commits its first batch (or
	// gives up), so the split begins under an established write load.
	var wg, started sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		started.Add(1)
		go func(g int) {
			defer wg.Done()
			firstCommit := sync.OnceFunc(started.Done)
			defer firstCommit()
			seq := int64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				batch := make([]schema.Tuple, 16)
				for j := range batch {
					batch[j] = batchServerRow(t, 1_000_000+int64(g)*1_000_000+seq)
					seq++
				}
				opErrs, err := srv.ApplyBatch("items", batch)
				if err != nil {
					t.Errorf("batch during split: %v", err)
					return
				}
				for _, e := range opErrs {
					if e != nil {
						t.Errorf("batch op during split: %v", e)
						return
					}
				}
				inserted.Add(int64(len(batch)))
				firstCommit()
			}
		}(g)
	}

	started.Wait()
	if _, err := srv.SplitShard(ctx, "items", 0, nil); err != nil {
		t.Fatalf("split under load: %v", err)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	if got, want := scanCount(t, srv), rows+int(inserted.Load()); got != want {
		t.Fatalf("conservation failed across the transition: %d rows, want %d", got, want)
	}
	if got, want := auditShards(t, srv, "items", "split 1 under concurrent batches"), rows+int(inserted.Load()); got != want {
		t.Fatalf("audited %d tuples, want %d", got, want)
	}
	st := srv.Stats()
	if st.Splits != 1 {
		t.Fatalf("splits = %d, want 1", st.Splits)
	}
	// The in-lock replay is the catch-up residue: the tail bound plus
	// whatever the race window between the last catch-up round and the
	// lock admits (a few in-flight rounds). It must never approach the
	// shard's own size.
	slack := uint64(DefaultReshardTailBound + 2048)
	if st.ReshardTailReplayed > slack {
		t.Fatalf("in-lock tail replay = %d tuples; want <= %d (bound %d + race slack), shard had %d rows",
			st.ReshardTailReplayed, slack, DefaultReshardTailBound, rows)
	}
	if st.ReshardBuildMs <= 0 {
		t.Fatal("unlocked build phase recorded no wall time")
	}
	t.Logf("stall soak: %d tuples ingested under the split, %d pre-replayed over %d rounds, %d replayed in-lock, build %.2fms, barrier %.2fms",
		inserted.Load(), st.ReshardTailPrereplayed, st.ReshardCatchupRounds, st.ReshardTailReplayed, st.ReshardBuildMs, st.ReshardBarrierStallMs)
}
