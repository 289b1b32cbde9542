package central

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"edgeauth/internal/schema"
	"edgeauth/internal/shardmap"
	"edgeauth/internal/sig"
	"edgeauth/internal/wire"
	"edgeauth/internal/workload"
)

// newReshardServer builds a server with a fast signing scheme (so
// SignOps counts shard-root signatures one-for-one) and the given shard
// count over rows sequential tuples.
func newReshardServer(t *testing.T, rows, shards int, opts Options) *Server {
	t.Helper()
	opts.Scheme = sig.SchemeEd25519
	opts.Shards = shards
	if opts.PageSize == 0 {
		opts.PageSize = 1024
	}
	srv, err := NewServer(opts)
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
	t.Cleanup(func() { srv.Close() })
	return srv
}

func scanCount(t *testing.T, srv *Server) int {
	t.Helper()
	return len(rowsIn(t, srv, "items", nil, nil))
}

// TestSplitShardCommitsNewEpoch pins the whole split contract: one new
// map epoch with the parent link, one more shard, fresh stable IDs, all
// data retained, the transition validating under the shardmap rules —
// and exactly the affected signatures (two carved roots plus one map
// under ed25519), never a whole-table re-sign: none by the split
// itself, all of them by the first pull that ships them.
func TestSplitShardCommitsNewEpoch(t *testing.T) {
	srv := newReshardServer(t, 200, 2, Options{})
	before := srv.SignedShardMap
	sm0, err := before("items")
	if err != nil {
		t.Fatal(err)
	}
	if sm0.Map.MapEpoch != 1 || sm0.Map.ParentEpoch != 0 {
		t.Fatalf("fresh table should be generation 1 with no parent, got %d/%d", sm0.Map.MapEpoch, sm0.Map.ParentEpoch)
	}
	rows0 := scanCount(t, srv)
	signsBefore := srv.Stats().SignOps

	resp, err := srv.SplitShard(context.Background(), "items", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if signsDelta := srv.Stats().SignOps - signsBefore; signsDelta != 0 {
		t.Fatalf("split signed %d times; want 0 (nothing is signed before it is shipped)", signsDelta)
	}
	auditShards(t, srv, "items", "split 1")
	if resp.MapEpoch != 2 || resp.NumShards != 3 {
		t.Fatalf("split response = epoch %d, %d shards; want 2, 3", resp.MapEpoch, resp.NumShards)
	}

	if got := pull(t, srv, replicaOf(sm0)); got != 3 {
		t.Fatalf("first pull of the new generation signed %d times; want exactly 3 (left root + right root + map)", got)
	}
	sm1, err := srv.SignedShardMap("items")
	if err != nil {
		t.Fatal(err)
	}
	if err := sm1.Verify(srv.PublicKey()); err != nil {
		t.Fatalf("post-split map does not verify: %v", err)
	}
	if sm1.Map.MapEpoch != 2 || sm1.Map.ParentEpoch != 1 {
		t.Fatalf("post-split generation link = %d/%d; want 2/1", sm1.Map.MapEpoch, sm1.Map.ParentEpoch)
	}
	if err := shardmap.ValidateTransition(sm0.Map, sm1.Map); err != nil {
		t.Fatalf("committed split fails transition validation: %v", err)
	}
	if got := scanCount(t, srv); got != rows0 {
		t.Fatalf("split lost tuples: %d -> %d", rows0, got)
	}
	// New shards' versions sit strictly above everything the old
	// generation published, so a stale replica's delta request can never
	// splice histories.
	for i := 1; i <= 2; i++ {
		if v := sm1.Map.Shards[i].Version; v <= sm0.Map.MapVersion {
			t.Fatalf("carved shard %d born at version %d, not above old map version %d", i, v, sm0.Map.MapVersion)
		}
	}

	// Writes keep landing on the right shards across the new boundary.
	if err := srv.Insert("items", batchServerRow(t, 100000)); err != nil {
		t.Fatal(err)
	}
	if got := scanCount(t, srv); got != rows0+1 {
		t.Fatalf("post-split insert lost: %d tuples, want %d", got, rows0+1)
	}
	if got := auditShards(t, srv, "items", "insert 2"); got != rows0+1 {
		t.Fatalf("insert 2: audited %d tuples, want %d", got, rows0+1)
	}
}

func TestMergeShardsCommitsNewEpoch(t *testing.T) {
	srv := newReshardServer(t, 200, 3, Options{})
	sm0, err := srv.SignedShardMap("items")
	if err != nil {
		t.Fatal(err)
	}
	rows0 := scanCount(t, srv)
	signsBefore := srv.Stats().SignOps

	resp, err := srv.MergeShards(context.Background(), "items", 0)
	if err != nil {
		t.Fatal(err)
	}
	if delta := srv.Stats().SignOps - signsBefore; delta != 0 {
		t.Fatalf("merge signed %d times; want 0 (nothing is signed before it is shipped)", delta)
	}
	if got := auditShards(t, srv, "items", "merge 1"); got != rows0 {
		t.Fatalf("merge 1: audited %d tuples, want %d", got, rows0)
	}
	if resp.MapEpoch != 2 || resp.NumShards != 2 {
		t.Fatalf("merge response = epoch %d, %d shards; want 2, 2", resp.MapEpoch, resp.NumShards)
	}
	if got := pull(t, srv, replicaOf(sm0)); got != 2 {
		t.Fatalf("first pull of the new generation signed %d times; want exactly 2 (merged root + map)", got)
	}
	sm1, err := srv.SignedShardMap("items")
	if err != nil {
		t.Fatal(err)
	}
	if err := shardmap.ValidateTransition(sm0.Map, sm1.Map); err != nil {
		t.Fatalf("committed merge fails transition validation: %v", err)
	}
	if got := scanCount(t, srv); got != rows0 {
		t.Fatalf("merge lost tuples: %d -> %d", rows0, got)
	}
}

// TestReshardSplicesAtPartitionEdges runs the one transition shape at
// both ends of a 4-shard partition — splits of the first and last shard,
// merges of the first and last pair — with one insert landing in the
// delta tail between the pin and the barrier. Its key is the split's cut
// (or the boundary the merge removes), so it must reach the child whose
// range starts at that key.
func TestReshardSplicesAtPartitionEdges(t *testing.T) {
	for _, tc := range []struct {
		name         string
		idx, parents int
	}{
		{"split first shard", 0, 1},
		{"split last shard", 3, 1},
		{"merge first pair", 0, 2},
		{"merge last pair", 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newReshardServer(t, 200, 4, Options{})
			tb, err := srv.table("items")
			if err != nil {
				t.Fatal(err)
			}
			sm0, err := srv.SignedShardMap("items")
			if err != nil {
				t.Fatal(err)
			}
			// Keys are 0..199, 50 to a shard. A split cuts its parent
			// halfway and the cut key belongs to the right child; a merge's
			// one child takes the removed boundary key.
			var key schema.Datum
			var boundary *schema.Datum
			wantChild := 0
			if tc.parents == 1 {
				lo := int64(0)
				if tc.idx > 0 {
					lo = sm0.Map.Boundaries[tc.idx-1].I
				}
				key = schema.Int64(lo + 25)
				boundary = &key
				wantChild = 1
			} else {
				key = sm0.Map.Boundaries[tc.idx]
			}
			if n, err := srv.DeleteRange("items", &key, &key); err != nil || n != 1 {
				t.Fatalf("delete %v: n=%d err=%v", key, n, err)
			}
			auditShards(t, srv, "items", "delete 1")

			load := 0.0
			tb.detMu.Lock()
			for i, sh := range tb.part.Load().shards {
				sh.ewma = float64(3 + 2*i)
				if i >= tc.idx && i < tc.idx+tc.parents {
					load += sh.ewma
				}
			}
			tb.detMu.Unlock()

			tr, err := srv.prepareTransition(tb, &reshardCmd{shard: uint32(tc.idx), parents: tc.parents, boundary: boundary})
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Insert("items", batchServerRow(t, key.I)); err != nil {
				t.Fatal(err)
			}
			auditShards(t, srv, "items", "insert 2")
			if _, err := srv.finishReshard(tr); err != nil {
				t.Fatal(err)
			}
			if got := auditShards(t, srv, "items", tc.name+" 3"); got != 200 {
				t.Fatalf("%s: audited %d tuples, want 200", tc.name, got)
			}
			if got := srv.Stats().ReshardTailReplayed; got != 1 {
				t.Fatalf("barrier replayed %d tail tuples, want the one insert", got)
			}

			sm1, err := srv.SignedShardMap("items")
			if err != nil {
				t.Fatal(err)
			}
			if err := shardmap.ValidateTransition(sm0.Map, sm1.Map); err != nil {
				t.Fatalf("committed transition fails validation: %v", err)
			}
			if n := scanCount(t, srv); n != 200 {
				t.Fatalf("transition left %d rows, want 200", n)
			}
			retired := make(map[uint64]bool)
			for _, sh := range sm0.Map.Shards {
				retired[sh.ID] = true
			}
			for j, c := range tr.children {
				if retired[c.id] || sm1.Map.Shards[tc.idx+j].ID != c.id {
					t.Fatalf("child %d has ID %d; want a fresh ID at map position %d", j, c.id, tc.idx+j)
				}
				if want := load / float64(len(tr.children)); c.ewma != want {
					t.Fatalf("child %d inherited EWMA %v, want %v", j, c.ewma, want)
				}
				rows, err := scanShard(c)
				if err != nil {
					t.Fatal(err)
				}
				has := false
				for _, r := range rows {
					has = has || r.Key(tb.sch).Compare(key) == 0
				}
				if has != (j == wantChild) {
					t.Fatalf("child %d holds the tail key %v: %v, want %v", j, key, has, j == wantChild)
				}
			}
		})
	}
}

func TestSplitShardRejectsBadRequests(t *testing.T) {
	srv := newReshardServer(t, 50, 2, Options{})
	ctx := context.Background()
	if _, err := srv.SplitShard(ctx, "items", 9, nil); err == nil {
		t.Fatal("split of out-of-range shard index succeeded")
	}
	if _, err := srv.MergeShards(ctx, "items", 1); err == nil {
		t.Fatal("merge past the last shard succeeded")
	}
	// An explicit boundary outside the shard's range must be rejected:
	// shard 0 owns keys below the first boundary.
	sm, err := srv.SignedShardMap("items")
	if err != nil {
		t.Fatal(err)
	}
	outside := sm.Map.Boundaries[0]
	if _, err := srv.SplitShard(ctx, "items", 0, &outside); err == nil {
		t.Fatal("split at a key outside the shard's range succeeded")
	}
	if _, err := srv.SplitShard(ctx, "nope", 0, nil); !errors.Is(err, wire.ErrUnknownTable) {
		t.Fatalf("split of unknown table: got %v, want ErrUnknownTable", err)
	}
	if got := auditShards(t, srv, "items", "rejected transitions"); got != 50 {
		t.Fatalf("rejected transitions: audited %d tuples, want 50", got)
	}
}

// TestTransitionMustChainToStoredMap: the transition commit checks the
// child map against the table's stored map with
// shardmap.ValidateTransition and refuses one that does not follow from
// it. Here the stored map is swapped for one a generation ahead of the
// partition the split was built from, so the child's parent link points
// at a map that is no longer the stored one: the split fails with
// ErrBadTransition, logs nothing, and leaves the partition, the map and
// every tuple as they were. With the honest map back, the same split
// commits.
func TestTransitionMustChainToStoredMap(t *testing.T) {
	srv := newReshardServer(t, 100, 2, Options{WALDir: t.TempDir()})
	ctx := context.Background()
	tbl, err := srv.table("items")
	if err != nil {
		t.Fatal(err)
	}
	honest := tbl.smap.Load()
	ahead := *honest
	ahead.MapEpoch, ahead.ParentEpoch = honest.MapEpoch+1, honest.MapEpoch
	tbl.smap.Store(&ahead)
	part := tbl.part.Load()

	if _, err := srv.SplitShard(ctx, "items", 0, nil); !errors.Is(err, shardmap.ErrBadTransition) {
		t.Fatalf("split whose child map does not chain to the stored one: %v, want ErrBadTransition", err)
	}
	if tbl.part.Load() != part || tbl.smap.Load() != &ahead {
		t.Fatal("the refused split swapped the partition or the stored map")
	}
	if hist, err := srv.ReshardHistory("items"); err != nil || len(hist) != 0 {
		t.Fatalf("the refused split left %d transitions in the meta log (%v), want none", len(hist), err)
	}

	tbl.smap.Store(honest)
	if got := auditShards(t, srv, "items", "refused split"); got != 100 {
		t.Fatalf("refused split: audited %d tuples, want 100", got)
	}
	resp, err := srv.SplitShard(ctx, "items", 0, nil)
	if err != nil {
		t.Fatalf("the same split from the honest map: %v", err)
	}
	if resp.MapEpoch != honest.MapEpoch+1 || resp.NumShards != 3 {
		t.Fatalf("split from the honest map = epoch %d, %d shards; want %d, 3", resp.MapEpoch, resp.NumShards, honest.MapEpoch+1)
	}
	if got := auditShards(t, srv, "items", "split 1"); got != 100 {
		t.Fatalf("split 1: audited %d tuples, want 100", got)
	}
}

// TestReshardWALReplay pins the durability story: the transition lands
// as a typed record in the table's meta log, and the carved shards'
// logs replay their full contents (seeded as one batch record), so a
// restart can rebuild the partition without the retired shard's log.
func TestReshardWALReplay(t *testing.T) {
	dir := t.TempDir()
	srv := newReshardServer(t, 100, 2, Options{WALDir: dir})
	if _, err := srv.SplitShard(context.Background(), "items", 0, nil); err != nil {
		t.Fatal(err)
	}
	auditShards(t, srv, "items", "split 1")
	hist, err := srv.ReshardHistory("items")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1 {
		t.Fatalf("meta log holds %d transitions, want 1", len(hist))
	}
	op := hist[0]
	if !op.Split || op.Shard != 0 || op.Boundary == nil {
		t.Fatalf("reshard record = %+v; want a split of shard 0 with a boundary", op)
	}
	if op.MapEpoch != 2 || op.ParentEpoch != 1 {
		t.Fatalf("reshard record generation link = %d/%d; want 2/1", op.MapEpoch, op.ParentEpoch)
	}
	if len(op.RetiredIDs) != 1 || len(op.NewIDs) != 2 {
		t.Fatalf("reshard record IDs = %v -> %v; want 1 retired, 2 new", op.RetiredIDs, op.NewIDs)
	}
	// Build-time shards log only updates (their contents come from the
	// build input), but carved shards seed their logs with their full
	// contents — so the replayable history gained exactly the retired
	// shard's 50 tuples, and a restart needs no retired log.
	ops, err := srv.LoggedOps("items")
	if err != nil {
		t.Fatal(err)
	}
	logged := 0
	for _, op := range ops {
		logged += len(op.Tuples)
	}
	if logged != 50 {
		t.Fatalf("current shard logs replay %d tuples, want the 50 carved tuples", logged)
	}
}

// TestRetiredShardDeltaFailsClosed pins the no-history-splice property
// for a replica whose map predates a transition. Replication names a
// shard by stable ID, so a request for a shard the transition retired is
// refused with the typed ShardMoved, and a request for a surviving
// neighbour that the transition shifted to another position still
// reaches that neighbour — never the shard now sitting at its old index.
func TestRetiredShardDeltaFailsClosed(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name       string
		transition func(*Server) error
	}{
		{"split", func(srv *Server) error { _, err := srv.SplitShard(ctx, "items", 0, nil); return err }},
		{"merge", func(srv *Server) error { _, err := srv.MergeShards(ctx, "items", 0); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newReshardServer(t, 150, 3, Options{})
			epoch, err := srv.TableEpoch("items")
			if err != nil {
				t.Fatal(err)
			}
			sm0, err := srv.SignedShardMap("items")
			if err != nil {
				t.Fatal(err)
			}
			// The last shard commits once, so a replica at sm0 has a real
			// delta to ask for; it survives both transitions but moves
			// (index 2 -> 3 under the split of 0, 2 -> 1 under the merge).
			if err := srv.Insert("items", batchServerRow(t, 100000)); err != nil {
				t.Fatal(err)
			}
			if err := tc.transition(srv); err != nil {
				t.Fatal(err)
			}
			retired, survivor := sm0.Map.Shards[0], sm0.Map.Shards[2]

			if _, err := srv.ShardDeltaByID("items", retired.ID, retired.Version, epoch); !errors.Is(err, wire.ErrShardMoved) {
				t.Fatalf("delta for the retired shard: %v, want wire.ErrShardMoved", err)
			}
			if _, err := srv.ShardSnapshotByID("items", retired.ID); !errors.Is(err, wire.ErrShardMoved) {
				t.Fatalf("snapshot of the retired shard: %v, want wire.ErrShardMoved", err)
			}

			d, err := srv.ShardDeltaByID("items", survivor.ID, survivor.Version, epoch)
			if err != nil {
				t.Fatal(err)
			}
			if d.SnapshotNeeded || d.Table != wire.ShardRef("items", survivor.ID) || d.ToVersion != survivor.Version+1 {
				t.Fatalf("survivor's delta: ref %q, to v%d, snapshotNeeded=%v", d.Table, d.ToVersion, d.SnapshotNeeded)
			}
			// Whatever now sits at the survivor's old index signs its deltas
			// under its own ID, so a replica of the survivor rejects them.
			if at, err := srv.ShardDelta("items", 2, 0, epoch); err == nil && at.Table == d.Table {
				t.Fatalf("old index 2 still answers as shard ID %d", survivor.ID)
			}
		})
	}
}

// TestAutoReshardDetector drives the EWMA detector by hand: skewed
// ingest trips a split of the hot shard, and an idle tick afterwards
// commits nothing.
func TestAutoReshardDetector(t *testing.T) {
	srv := newReshardServer(t, 200, 2, Options{
		AutoReshard: &AutoReshardOptions{SplitFraction: 0.8, MaxShards: 4},
	})
	ctx := context.Background()
	// All new load lands in shard 1 (keys above every build key).
	for i := 0; i < 40; i++ {
		if err := srv.Insert("items", batchServerRow(t, int64(100000+i))); err != nil {
			t.Fatal(err)
		}
		auditShards(t, srv, "items", fmt.Sprintf("insert %d", i+1))
	}
	resp, err := srv.AutoReshardTick(ctx, "items")
	if err != nil {
		t.Fatal(err)
	}
	if resp == nil || resp.NumShards != 3 {
		t.Fatalf("skewed load did not split the hot shard: %+v", resp)
	}
	if got := auditShards(t, srv, "items", "split 41"); got != 240 {
		t.Fatalf("split 41: audited %d tuples, want 240", got)
	}
	// With the counters drained, the next tick only decays the EWMA: the
	// split children share the hot load evenly (share 0.5 < 0.8), and the
	// coldest adjacent pair still carries half of it (0.5 > 0.05), so the
	// partition is left alone.
	resp, err = srv.AutoReshardTick(ctx, "items")
	if err != nil {
		t.Fatal(err)
	}
	if resp != nil {
		t.Fatalf("idle tick committed a transition: %+v", resp)
	}
}

// TestReshardThroughWire drives the admin frame end to end through the
// dispatcher: a MsgReshardReq splits, and every row is still there
// afterwards.
func TestReshardThroughWire(t *testing.T) {
	srv := newReshardServer(t, 100, 2, Options{})
	req := &wire.ReshardRequest{Table: "items", Op: wire.ReshardSplit, Shard: 0}
	mt, body, err := srv.dispatch(context.Background(), wire.MsgReshardReq, req.Encode(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if mt != wire.MsgReshardResp {
		t.Fatalf("dispatch answered %v, want MsgReshardResp", mt)
	}
	resp, err := wire.DecodeReshardResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.NumShards != 3 {
		t.Fatalf("wire split left %d shards, want 3", resp.NumShards)
	}
	auditShards(t, srv, "items", "split 1")
	if n := scanCount(t, srv); n != 100 {
		t.Fatalf("post-split full scan returned %d tuples, want 100", n)
	}
}

// TestReshardIsGroupCommitBarrier proves a transition serializes with
// the coalescing front door instead of bypassing it: inserts enqueued
// before the reshard commit before it, and everything lands.
func TestReshardIsGroupCommitBarrier(t *testing.T) {
	srv := newReshardServer(t, 100, 2, Options{MaxBatch: 8})
	ctx := context.Background()
	rows0 := scanCount(t, srv)
	const extra = 20
	errs := make(chan error, extra)
	for i := 0; i < extra; i++ {
		go func(i int) {
			errs <- insertOne(srv, batchServerRow(t, int64(200000+i)))
		}(i)
	}
	if _, err := srv.SplitShard(ctx, "items", 1, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < extra; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := scanCount(t, srv); got != rows0+extra {
		t.Fatalf("after concurrent inserts + split: %d tuples, want %d", got, rows0+extra)
	}
	if got := auditShards(t, srv, "items", "split 1 and 20 concurrent inserts"); got != rows0+extra {
		t.Fatalf("audited %d tuples, want %d", got, rows0+extra)
	}
}
