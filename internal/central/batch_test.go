package central

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/wal"
	"edgeauth/internal/wire"
	"edgeauth/internal/workload"
)

var (
	batchKeyOnce sync.Once
	batchKey     *sig.PrivateKey
)

func batchServerKey(t testing.TB) *sig.PrivateKey {
	t.Helper()
	batchKeyOnce.Do(func() { batchKey = sig.MustGenerate(sig.SchemeRSAMerkle, 512) })
	return batchKey
}

func newBatchServer(t *testing.T, rows int, opts Options) *Server {
	t.Helper()
	srv, err := NewServerWithKey(opts, batchServerKey(t))
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

func batchServerRow(t testing.TB, id int64) schema.Tuple {
	t.Helper()
	sch, err := workload.DefaultSpec(1).Schema()
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]schema.Datum, len(sch.Columns))
	vals[0] = schema.Int64(id)
	for i := 1; i < len(vals); i++ {
		vals[i] = schema.Str(fmt.Sprintf("central-batch-%06d", id))
	}
	return schema.Tuple{Values: vals}
}

// TestApplyBatchCommitsOnce pins the group-commit invariants: one version
// bump, one changelog entry, one WAL record and no signature at the
// commit, the shard's root signed once by the delta
// that first ships the batch, with the WAL record replaying as the one
// batch it was written as.
func TestApplyBatchCommitsOnce(t *testing.T) {
	srv := newReshardServer(t, 200, 1, Options{WALDir: t.TempDir()})
	base, err := srv.Version("items")
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := srv.TableEpoch("items")
	if err != nil {
		t.Fatal(err)
	}

	var rows []schema.Tuple
	for i := int64(0); i < 48; i++ {
		rows = append(rows, batchServerRow(t, 10_000+i))
	}
	signsBefore := srv.Stats().SignOps
	opErrs, err := srv.ApplyBatch("items", rows)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range opErrs {
		if e != nil {
			t.Fatalf("op %d failed: %v", i, e)
		}
	}
	if delta := srv.Stats().SignOps - signsBefore; delta != 0 {
		t.Fatalf("batch of %d tuples paid %d signatures at the commit, want 0", len(rows), delta)
	}

	// One version bump for 48 tuples.
	v, err := srv.Version("items")
	if err != nil {
		t.Fatal(err)
	}
	if v != base+1 {
		t.Fatalf("version went %d -> %d, want exactly one bump", base, v)
	}

	// One changelog entry: a delta from base covers the whole batch. The
	// first one shipped signs the root and its body, the next its body.
	for i, want := range []uint64{2, 1} {
		signsBefore = srv.Stats().SignOps
		d, err := srv.ShardDelta("items", 0, base, epoch)
		if err != nil {
			t.Fatal(err)
		}
		if d.SnapshotNeeded || d.ToVersion != v {
			t.Fatalf("delta after batch: snapshotNeeded=%v to=%d want to=%d", d.SnapshotNeeded, d.ToVersion, v)
		}
		if len(d.PageIDs) == 0 {
			t.Fatal("batch committed but delta carries no pages")
		}
		if got := srv.Stats().SignOps - signsBefore; got != want {
			t.Fatalf("delta %d shipping the batch paid %d signatures, want %d", i+1, got, want)
		}
	}

	// The WAL holds the batch as one record, and replays it as one.
	ops, err := srv.LoggedOps("items")
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || ops[0].Kind != wal.RecBatch || len(ops[0].Tuples) != len(rows) {
		t.Fatalf("replayed %+v, want one batch of %d tuples", ops, len(rows))
	}

	// The table holds the new rows.
	lo, hi := schema.Int64(10_000), schema.Int64(10_047)
	if n := len(rowsIn(t, srv, "items", &lo, &hi)); n != len(rows) {
		t.Fatalf("table holds %d of %d batch rows", n, len(rows))
	}
}

// TestApplyBatchPerOpErrors checks duplicates fail individually while the
// rest of the batch commits.
func TestApplyBatchPerOpErrors(t *testing.T) {
	srv := newBatchServer(t, 100, Options{PageSize: 1024})
	base, _ := srv.Version("items")
	rows := []schema.Tuple{
		batchServerRow(t, 20_000),
		batchServerRow(t, 5), // exists
		batchServerRow(t, 20_001),
	}
	opErrs, err := srv.ApplyBatch("items", rows)
	if err != nil {
		t.Fatal(err)
	}
	if opErrs[0] != nil || opErrs[2] != nil {
		t.Fatalf("clean ops failed: %v / %v", opErrs[0], opErrs[2])
	}
	if !errors.Is(opErrs[1], vbtree.ErrDuplicateKey) {
		t.Fatalf("duplicate op error = %v", opErrs[1])
	}
	if v, _ := srv.Version("items"); v != base+1 {
		t.Fatalf("partial batch bumped version to %d, want %d", v, base+1)
	}

	// An all-duplicate batch commits nothing and bumps nothing.
	opErrs, err = srv.ApplyBatch("items", []schema.Tuple{batchServerRow(t, 5)})
	if err != nil || !errors.Is(opErrs[0], vbtree.ErrDuplicateKey) {
		t.Fatalf("all-dup batch: errs=%v err=%v", opErrs, err)
	}
	if v, _ := srv.Version("items"); v != base+1 {
		t.Fatalf("no-op batch bumped version to %d", v)
	}

	if _, err := srv.ApplyBatch("missing", rows); err == nil {
		t.Fatal("batch into unknown table accepted")
	}
}

// insertOne sends one tuple through the front door, as a client's insert
// arrives: a batch of one.
func insertOne(srv *Server, tup schema.Tuple) error {
	opErrs, err := srv.enqueueBatch(context.Background(), "items", []schema.Tuple{tup})
	if err != nil {
		return err
	}
	return opErrs[0]
}

// holdLeadership makes the test the table's group-commit leader: every
// arrival queues as a follower until the test, standing in for a busy
// leader, drains the queue with leadCommits — so each round holds exactly
// what queued, however the goroutines are scheduled.
func holdLeadership(t *testing.T, srv *Server) *groupCommitter {
	t.Helper()
	tb, err := srv.table("items")
	if err != nil {
		t.Fatal(err)
	}
	gc := &tb.gc
	gc.mu.Lock()
	gc.leading = true
	gc.mu.Unlock()
	return gc
}

// awaitQueued waits until at least n ops are queued behind the held
// leadership.
func awaitQueued(t *testing.T, gc *groupCommitter, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		gc.mu.Lock()
		got := len(gc.queue)
		gc.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d ops queued", got, n)
		}
	}
}

// TestGroupCommitCoalesces drives concurrent single inserts through the
// coalescing front door: the 48 that queue behind a busy leader commit in
// exactly three rounds of MaxBatch, and every caller still sees its own
// result.
func TestGroupCommitCoalesces(t *testing.T) {
	const inserts, maxBatch = 48, 16
	srv := newBatchServer(t, 100, Options{PageSize: 1024, MaxBatch: maxBatch})
	base, _ := srv.Version("items")
	gc := holdLeadership(t, srv)

	var wg sync.WaitGroup
	errs := make([]error, inserts)
	for i := 0; i < inserts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = insertOne(srv, batchServerRow(t, 30_000+int64(i)))
		}(i)
	}
	awaitQueued(t, gc, inserts)
	srv.leadCommits("items", gc)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("insert %d failed: %v", i, err)
		}
	}
	if v, _ := srv.Version("items"); v-base != inserts/maxBatch {
		t.Fatalf("%d inserts committed in %d rounds, want %d", inserts, v-base, inserts/maxBatch)
	}

	// A duplicate routed through the front door still reports per-op.
	if err := insertOne(srv, batchServerRow(t, 30_000)); !errors.Is(err, vbtree.ErrDuplicateKey) {
		t.Fatalf("coalesced duplicate: %v, want ErrDuplicateKey", err)
	}

	// All rows landed.
	lo, hi := schema.Int64(30_000), schema.Int64(30_000+inserts-1)
	if n := len(rowsIn(t, srv, "items", &lo, &hi)); n != inserts {
		t.Fatalf("found %d of %d coalesced rows", n, inserts)
	}
}

// TestGroupCommitFullRoundCommitsEarly: a round filled to MaxBatch
// commits whole, and the op that arrives after it waits for the next
// round. MaxBatch + 1 single inserts queue in order behind a busy leader
// and commit in exactly two rounds: the first MaxBatch, then the last.
func TestGroupCommitFullRoundCommitsEarly(t *testing.T) {
	const maxBatch = 8
	srv := newBatchServer(t, 50, Options{PageSize: 1024, MaxBatch: maxBatch, WALDir: t.TempDir()})
	gc := holdLeadership(t, srv)
	var wg sync.WaitGroup
	errs := make([]error, maxBatch+1)
	for i := range errs {
		row := batchServerRow(t, 50_000+int64(i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = insertOne(srv, row)
		}(i)
		awaitQueued(t, gc, i+1)
	}
	before := srv.Stats().BatchRounds
	srv.leadCommits("items", gc)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("insert %d failed: %v", i, err)
		}
	}
	if rounds := srv.Stats().BatchRounds - before; rounds != 2 {
		t.Fatalf("%d inserts committed in %d rounds, want 2", maxBatch+1, rounds)
	}
	// The WAL holds one record per round, in commit order.
	ops, err := srv.LoggedOps("items")
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || len(ops[0].Tuples) != maxBatch || len(ops[1].Tuples) != 1 ||
		ops[1].Tuples[0].Values[0].I != 50_000+maxBatch {
		t.Fatalf("logged %+v, want a round of the first %d inserts, then the last alone", ops, maxBatch)
	}
}

// TestBatchOrdersInTheQueue pins the one-front-door guarantee for the
// batch frame: a batch and a delete of its keys, queued behind a leader
// that is still busy, commit in their arrival order — whichever came
// first. (Before, MsgBatchReq called ApplyBatch directly and overtook
// everything queued.)
func TestBatchOrdersInTheQueue(t *testing.T) {
	keys := []int64{90_000, 90_001, 90_002}
	lo, hi := schema.Int64(90_000), schema.Int64(90_002)
	for _, tc := range []struct {
		name        string
		batchFirst  bool
		wantDeleted int
		wantLeft    int
	}{
		{"batch then delete", true, len(keys), 0},
		{"delete then batch", false, 0, len(keys)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newBatchServer(t, 40, Options{PageSize: 1024})
			gc := holdLeadership(t, srv)

			var batch []schema.Tuple
			for _, k := range keys {
				batch = append(batch, batchServerRow(t, k))
			}
			var wg sync.WaitGroup
			var opErrs []error
			var batchErr, delErr error
			var deleted int
			sendBatch := func() {
				defer wg.Done()
				opErrs, batchErr = srv.enqueueBatch(context.Background(), "items", batch)
			}
			sendDelete := func() {
				defer wg.Done()
				deleted, delErr = srv.enqueueDelete(context.Background(), "items", &lo, &hi)
			}
			first, second := sendBatch, sendDelete
			if !tc.batchFirst {
				first, second = sendDelete, sendBatch
			}
			wg.Add(2)
			go first()
			awaitQueued(t, gc, 1)
			go second()
			awaitQueued(t, gc, 2)
			srv.leadCommits("items", gc)
			wg.Wait()

			if batchErr != nil || delErr != nil {
				t.Fatalf("batch err %v, delete err %v", batchErr, delErr)
			}
			for i, e := range opErrs {
				if e != nil {
					t.Fatalf("batch op %d: %v", i, e)
				}
			}
			if deleted != tc.wantDeleted {
				t.Fatalf("delete removed %d rows, want %d", deleted, tc.wantDeleted)
			}
			if left := len(rowsIn(t, srv, "items", &lo, &hi)); left != tc.wantLeft {
				t.Fatalf("%d batch rows left, want %d", left, tc.wantLeft)
			}
		})
	}
}

// TestSingleInsertSignOps: Insert is an ApplyBatch of one and signs
// nothing at the commit, under either scheme, on this table (200 rows, 2
// shards, 1 KB pages). The map and the root are signed when first shipped
// (TestShipLedger).
func TestSingleInsertSignOps(t *testing.T) {
	for _, tc := range []struct {
		scheme sig.Scheme
		want   [3]uint64
	}{
		{sig.SchemeRSAMerkle, [3]uint64{0, 0, 0}},
		{sig.SchemeEd25519, [3]uint64{0, 0, 0}},
	} {
		key, err := sig.Generate(tc.scheme, 512)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServerWithKey(Options{PageSize: 1024, Shards: 2}, key)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		spec := workload.DefaultSpec(200)
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
		for i, id := range []int64{-5, 10_000, 10_001} {
			before := srv.Stats().SignOps
			if err := srv.Insert("items", batchServerRow(t, id)); err != nil {
				t.Fatal(err)
			}
			if got := srv.Stats().SignOps - before; got != tc.want[i] {
				t.Errorf("%v: insert of id %d paid %d signatures, want %d", tc.scheme, id, got, tc.want[i])
			}
		}
	}
}

// TestKeylessInsertFailsAlone: a request holding a tuple with no key
// column arrives while good inserts are queued behind a busy leader. It
// is refused with CodeBadRequest before it is queued; the good inserts
// still fill one round and commit together.
func TestKeylessInsertFailsAlone(t *testing.T) {
	const good = 8
	srv := newBatchServer(t, 50, Options{PageSize: 1024, MaxBatch: good})
	base, _ := srv.Version("items")
	gc := holdLeadership(t, srv)
	var wg sync.WaitGroup
	errs := make([]error, good)
	for i := 0; i < good; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = insertOne(srv, batchServerRow(t, 60_000+int64(i)))
		}(i)
	}
	awaitQueued(t, gc, good)
	// Refused before the queue, the request returns while the leadership
	// is still held; had it queued, it would wait for leadCommits.
	bad := make(chan error, 1)
	go func() {
		_, err := srv.enqueueBatch(context.Background(), "items", []schema.Tuple{{}})
		bad <- err
	}()
	var badErr error
	select {
	case badErr = <-bad:
	case <-time.After(5 * time.Second):
		t.Fatal("key-less insert was queued instead of refused")
	}
	var we *wire.WireError
	if !errors.As(badErr, &we) || we.Code != wire.CodeBadRequest {
		t.Fatalf("key-less insert: %v, want CodeBadRequest", badErr)
	}
	srv.leadCommits("items", gc)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("good insert %d failed beside a key-less one: %v", i, err)
		}
	}
	if v, _ := srv.Version("items"); v != base+1 {
		t.Fatalf("%d good inserts committed in %d rounds, want 1", good, v-base)
	}
}

// TestInsertRequestsCoalesceBySize: insert requests of any size share a
// round up to MaxBatch tuples, a request larger than that commits in a
// round of its own, and each request gets back exactly its own per-tuple
// errors.
func TestInsertRequestsCoalesceBySize(t *testing.T) {
	srv := newBatchServer(t, 40, Options{PageSize: 1024, MaxBatch: 8})
	// Hold the leadership so the requests queue in a known order.
	gc := holdLeadership(t, srv)

	rows := func(ids ...int64) []schema.Tuple {
		out := make([]schema.Tuple, len(ids))
		for i, id := range ids {
			out[i] = batchServerRow(t, id)
		}
		return out
	}
	big := make([]int64, 20)
	for i := range big {
		big[i] = 71_000 + int64(i)
	}
	requests := [][]schema.Tuple{
		rows(70_000, 5, 70_001), // 5 is already in the table
		rows(70_002),
		rows(big...),         // more than MaxBatch: a round of its own
		rows(70_001, 70_003), // 70_001 duplicates the first request's third
	}
	results := make([][]error, len(requests))
	var wg sync.WaitGroup
	for i, req := range requests {
		wg.Add(1)
		go func(i int, req []schema.Tuple) {
			defer wg.Done()
			var err error
			if results[i], err = srv.enqueueBatch(context.Background(), "items", req); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i, req)
		awaitQueued(t, gc, i+1)
	}
	base, _ := srv.Version("items")
	srv.leadCommits("items", gc)
	wg.Wait()

	// Rounds: requests 0+1 (4 tuples), request 2 alone, request 3.
	if v, _ := srv.Version("items"); v != base+3 {
		t.Fatalf("committed in %d rounds, want 3", v-base)
	}
	for i, req := range requests {
		if len(results[i]) != len(req) {
			t.Fatalf("request %d got %d results for %d tuples", i, len(results[i]), len(req))
		}
		for j, e := range results[i] {
			dup := (i == 0 && j == 1) || (i == 3 && j == 0)
			if dup != errors.Is(e, vbtree.ErrDuplicateKey) {
				t.Errorf("request %d tuple %d: error %v, duplicate expected %v", i, j, e, dup)
			}
		}
	}
}
