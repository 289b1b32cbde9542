package edge

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"edgeauth/internal/central"
	"edgeauth/internal/schema"
	"edgeauth/internal/storage"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/verify"
)

// TestQueriesVerifyUnderConcurrentRefresh is the snapshot-isolation proof
// (run with -race): query goroutines hammer a replica with zero lock
// acquisitions on the query path while a refresher continuously commits
// updates at the central server and applies signed deltas to the same
// replica. Every result must verify — tamper-free and complete against
// the signed digests — meaning no query ever observed a half-applied
// delta, and the final state must reflect every committed update.
func TestQueriesVerifyUnderConcurrentRefresh(t *testing.T) {
	// Answers are read in place on pinned pages: a buffer recycled under a
	// live pin must show (see storage.SetPoisonOnRecycle).
	defer storage.SetPoisonOnRecycle(storage.SetPoisonOnRecycle(true))
	ctx := context.Background()
	srv, centralAddr := startCentralOpts(t, 300, central.Options{PageSize: 1024})
	eg := New(centralAddr)
	if err := eg.PullAll(ctx); err != nil {
		t.Fatal(err)
	}
	sch, err := eg.Schema("items")
	if err != nil {
		t.Fatal(err)
	}
	ver := &verify.Verifier{Keys: trusted(srv.PublicKey()), Acc: srv.Accumulator(), Schema: sch}

	const queryWorkers = 8
	const refreshes = 30
	done := make(chan struct{})
	errCh := make(chan error, queryWorkers)
	var queries atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				lo := schema.Int64(int64((w*37 + i) % 250))
				hi := schema.Int64(lo.I + 25)
				rs, w2, err := runQuery(ctx, eg, "items", vbtree.Query{Lo: &lo, Hi: &hi})
				if err != nil {
					errCh <- fmt.Errorf("query during refresh: %w", err)
					return
				}
				if err := ver.Verify(rs, w2); err != nil {
					errCh <- fmt.Errorf("result failed verification during refresh (torn snapshot?): %w", err)
					return
				}
				queries.Add(1)
			}
		}(w)
	}

	// The refresher races the queries: commit at the central, apply the
	// signed delta to the replica. Deletes are mixed in so refreshes
	// rewrite existing pages, not just append.
	var refreshErr error
	for i := 0; i < refreshes && refreshErr == nil; i++ {
		if err := srv.Insert("items", freshRow(t, int64(100_000+i))); err != nil {
			refreshErr = err
			break
		}
		if i%5 == 4 {
			lo := schema.Int64(int64(i * 7 % 200))
			if _, err := srv.DeleteRange("items", &lo, &lo); err != nil {
				refreshErr = err
				break
			}
		}
		st, err := eg.Refresh(ctx, "items")
		if err != nil {
			refreshErr = err
			break
		}
		if st.Mode != "delta" {
			refreshErr = fmt.Errorf("refresh %d fell back to %q", i, st.Mode)
		}
	}
	close(done)
	wg.Wait()
	if refreshErr != nil {
		t.Fatal(refreshErr)
	}
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if queries.Load() == 0 {
		t.Fatal("no queries completed during the refresh storm")
	}
	t.Logf("%d verified queries raced %d delta refreshes", queries.Load(), refreshes)

	// The replica converged on the full committed history.
	wantV, err := srv.Version("items")
	if err != nil {
		t.Fatal(err)
	}
	gotV, err := eg.Version("items")
	if err != nil {
		t.Fatal(err)
	}
	if gotV != wantV {
		t.Fatalf("replica at v%d, central at v%d", gotV, wantV)
	}
	lo := schema.Int64(100_000)
	rs, w2, err := runQuery(ctx, eg, "items", vbtree.Query{Lo: &lo})
	if err != nil {
		t.Fatal(err)
	}
	if err := ver.Verify(rs, w2); err != nil {
		t.Fatal(err)
	}
	if len(rs.Tuples) != refreshes {
		t.Fatalf("final state has %d inserted rows, want %d", len(rs.Tuples), refreshes)
	}
}

// TestRunQueryHonoursContext proves the satellite: a cancelled context
// stops the traversal instead of completing the query.
func TestRunQueryHonoursContext(t *testing.T) {
	_, centralAddr := startCentralOpts(t, 100, central.Options{PageSize: 1024})
	eg := New(centralAddr)
	if err := eg.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := runQuery(ctx, eg, "items", vbtree.Query{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("query with cancelled ctx returned %v, want context.Canceled", err)
	}
	// And an un-cancelled context still works.
	if _, _, err := runQuery(context.Background(), eg, "items", vbtree.Query{}); err != nil {
		t.Fatal(err)
	}
}

// TestOldSnapshotsDrainAndRecycle checks that a replica's superseded
// versions are released back to the store once the last query pin drops:
// refresh N times with no readers, and the store must not accumulate one
// full page-set allocation per version.
func TestOldSnapshotsDrainAndRecycle(t *testing.T) {
	ctx := context.Background()
	srv, centralAddr := startCentralOpts(t, 200, central.Options{PageSize: 1024})
	eg := New(centralAddr)
	if err := eg.PullAll(ctx); err != nil {
		t.Fatal(err)
	}
	rep := eg.replica("items")
	for i := 0; i < 10; i++ {
		if err := srv.Insert("items", freshRow(t, int64(200_000+i))); err != nil {
			t.Fatal(err)
		}
		if _, err := eg.Refresh(ctx, "items"); err != nil {
			t.Fatal(err)
		}
	}
	allocated, recycled := rep.set.Load().shards[0].store.Stats()
	if recycled == 0 {
		t.Fatalf("10 unobserved refreshes recycled no buffers (allocated %d)", allocated)
	}
	t.Logf("after 10 refreshes: %d buffers allocated, %d recycled", allocated, recycled)
}
