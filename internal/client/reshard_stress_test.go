package client

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgeauth/internal/central"
	"edgeauth/internal/schema"
	"edgeauth/internal/storage"
	"edgeauth/internal/wire"
	"edgeauth/internal/workload"
)

// TestRebalanceUnderLoad is the online-resharding soak: continuous
// zipfian-skewed ingest and concurrent verified scatter-gather queries
// run across two shard splits and one merge, with the edge refreshing
// on a tight tick the whole time. The acceptance bar: every answer
// verifies (zero ErrTampered), and no query ever observes a
// stale-replica window — a partition transition must re-bind the
// edge's carried shards, never invalidate the replica. Run under
// -race in CI.
func TestRebalanceUnderLoad(t *testing.T) {
	// Answers are built from page views held for the length of a pin: a
	// buffer recycled under one must read as garbage (and, under -race, as
	// a race), not as a stale page.
	defer storage.SetPoisonOnRecycle(storage.SetPoisonOnRecycle(true))
	ctx := context.Background()
	d := deploySharded(t, 400, 2)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Edge refresh loop: a tight propagation tick. Individual tick
	// errors are tolerated (commits legitimately race the alignment
	// loop under this load); a broken replica would surface below as a
	// stale-replica or tampered query answer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
				d.edge.Refresh(ctx, "items") //nolint:errcheck
			}
		}
	}()

	// Zipfian ingest: bucket 0 takes most inserts, so one key region —
	// and therefore one shard — runs hot while the splits land.
	const buckets = 8
	var inserted atomic.Int64
	buckets0 := workload.ZipfBuckets(4096, buckets, 1.5, 42)
	wg.Add(1)
	go func() {
		defer wg.Done()
		seq := make([]int64, buckets)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var batch []schema.Tuple
			for j := 0; j < 10; j++ {
				b := buckets0[(i*10+j)%len(buckets0)]
				id := 1_000_000 + int64(b)*100_000 + seq[b]
				seq[b]++
				batch = append(batch, row(t, id))
			}
			opErrs, err := d.client.InsertBatch(ctx, "items", batch)
			if err != nil {
				t.Errorf("ingest batch: %v", err)
				return
			}
			for _, e := range opErrs {
				if e != nil {
					t.Errorf("ingest op: %v", e)
					return
				}
			}
			inserted.Add(int64(len(batch)))
		}
	}()

	// Verified readers: full-range scatter-gather plus a hot-region
	// range, continuously. ANY error is a failure, and stale-replica /
	// tampered answers are called out specifically — those are the two
	// windows online resharding must not open.
	var queries atomic.Int64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				preds := rangePreds(0, 3_000_000)
				if r == 1 {
					preds = rangePreds(1_000_000, 1_100_000) // hot region
				}
				res, err := d.client.Query(ctx, "items", preds, nil)
				switch {
				case errors.Is(err, wire.ErrStaleReplica):
					t.Errorf("client observed a stale-replica window during resharding: %v", err)
					return
				case errors.Is(err, ErrTampered):
					t.Errorf("verification failed during resharding: %v", err)
					return
				case err != nil:
					t.Errorf("query during resharding: %v", err)
					return
				}
				if r == 0 && len(res.Result.Tuples) < 400 {
					t.Errorf("full scan returned %d rows, want >= 400", len(res.Result.Tuples))
					return
				}
				queries.Add(1)
			}
		}(r)
	}

	// The transitions, spaced so the load runs across each: split the
	// hot tail shard twice, then merge the (cold) head pair back.
	time.Sleep(100 * time.Millisecond)
	resp, err := d.central.SplitShard(ctx, "items", 1, nil)
	if err != nil {
		t.Fatalf("first split under load: %v", err)
	}
	time.Sleep(150 * time.Millisecond)
	if _, err := d.central.SplitShard(ctx, "items", resp.NumShards-1, nil); err != nil {
		t.Fatalf("second split under load: %v", err)
	}
	time.Sleep(150 * time.Millisecond)
	if _, err := d.central.MergeShards(ctx, "items", 0); err != nil {
		t.Fatalf("merge under load: %v", err)
	}
	time.Sleep(150 * time.Millisecond)

	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Converge and audit: the final refresh must land the edge on the
	// final 3-shard partition, and a last verified scan must account
	// for every row the ingest committed (InsertBatch returns only
	// after its group commit, so everything counted is durable).
	if _, err := d.edge.Refresh(ctx, "items"); err != nil {
		t.Fatalf("final refresh: %v", err)
	}
	if n, _ := d.edge.NumShards("items"); n != 3 {
		t.Fatalf("edge ended on %d shards, want 3 (2 splits, 1 merge)", n)
	}
	res, err := d.client.Query(ctx, "items", rangePreds(0, 3_000_000), nil)
	if err != nil {
		t.Fatalf("final audit query: %v", err)
	}
	want := 400 + int(inserted.Load())
	if len(res.Result.Tuples) != want {
		t.Fatalf("final audit: %d rows, want %d", len(res.Result.Tuples), want)
	}

	cs := d.central.Stats()
	if cs.Splits != 2 || cs.Merges != 1 {
		t.Fatalf("central transition counters: splits=%d merges=%d, want 2/1", cs.Splits, cs.Merges)
	}
	// The minimal re-signing contract held under load: 2 roots per
	// split + 1 per merge, never a whole-table re-sign.
	if cs.ReshardResigns != 5 {
		t.Fatalf("reshard root re-signs = %d, want 5 (2+2+1)", cs.ReshardResigns)
	}
	// Incremental transitions: across all three transitions the in-lock
	// tail replay stays near the configured bound (plus a race-window
	// slack per transition), never near the table's size — the unlocked
	// build plus catch-up rounds absorbed the rest.
	if lim := uint64(3 * (central.DefaultReshardTailBound + 512)); cs.ReshardTailReplayed > lim {
		t.Fatalf("in-lock tail replay = %d tuples across 3 transitions; want <= %d", cs.ReshardTailReplayed, lim)
	}
	es := d.edge.Stats()
	if es.ReshardsApplied == 0 {
		t.Fatal("edge never followed a partition transition")
	}
	t.Logf("rebalance soak: %d queries verified, %d rows ingested, %d transitions followed by the edge",
		queries.Load(), inserted.Load(), es.ReshardsApplied)
}
