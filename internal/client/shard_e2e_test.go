package client

import (
	"context"
	"errors"
	"net"
	"testing"

	"edgeauth/internal/central"
	"edgeauth/internal/edge"
	"edgeauth/internal/query"
	"edgeauth/internal/schema"
	"edgeauth/internal/shardmap"
	"edgeauth/internal/tamper"
	"edgeauth/internal/vo"
	"edgeauth/internal/workload"
)

// deploySharded is deploy with a range-partitioned central server.
func deploySharded(t *testing.T, rows, shards int) *deployment {
	t.Helper()
	return deployShardedBehind(t, rows, shards, func(l net.Listener) net.Listener { return l })
}

// deployShardedBehind is deploySharded with the edge's listener wrapped
// by the caller (to watch the connections the client makes).
func deployShardedBehind(t *testing.T, rows, shards int, wrap func(net.Listener) net.Listener) *deployment {
	t.Helper()
	srv, err := central.NewServerWithKey(central.Options{PageSize: 1024, Shards: shards}, centralKey(t))
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
	centralLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(centralLn)

	eg := edge.New(centralLn.Addr().String())
	if err := eg.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	edgeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go eg.Serve(wrap(edgeLn))

	cl, err := Dial(context.Background(), Config{
		EdgeAddr:    edgeLn.Addr().String(),
		CentralAddr: centralLn.Addr().String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.FetchTrustedKey(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		eg.Close()
		srv.Close()
	})
	return &deployment{central: srv, edge: eg, client: cl}
}

func rangePreds(lo, hi int64) []query.Predicate {
	return []query.Predicate{
		{Column: "id", Op: query.OpGE, Value: schema.Int64(lo)},
		{Column: "id", Op: query.OpLE, Value: schema.Int64(hi)},
	}
}

// TestShardedQueryEndToEnd: an honest cross-shard range query verifies
// end to end — every qualifying shard answers, each VO anchors at its
// map-pinned root, and the stitched result is complete and key-ordered.
func TestShardedQueryEndToEnd(t *testing.T) {
	ctx := context.Background()
	d := deploySharded(t, 400, 4)
	if n, err := d.edge.NumShards("items"); err != nil || n != 4 {
		t.Fatalf("edge replicated %d shards (%v), want 4", n, err)
	}

	// Cross-shard range: rows 50..349 span all four shards (boundaries
	// sit at 100/200/300 for the 0..399 sequential workload).
	res, err := d.client.Query(ctx, "items", rangePreds(50, 349), nil)
	if err != nil {
		t.Fatalf("honest cross-shard query rejected: %v", err)
	}
	if res.ShardsQueried != 4 {
		t.Fatalf("queried %d shards, want 4", res.ShardsQueried)
	}
	if len(res.Result.Tuples) != 300 {
		t.Fatalf("got %d rows, want 300", len(res.Result.Tuples))
	}
	if len(res.ShardVOs) != 4 {
		t.Fatalf("got %d shard VOs, want 4", len(res.ShardVOs))
	}
	for i := 1; i < len(res.Result.Keys); i++ {
		if res.Result.Keys[i-1].Compare(res.Result.Keys[i]) >= 0 {
			t.Fatalf("stitched result out of key order at %d", i)
		}
	}

	// A single-shard range sets VO and still verifies.
	res, err = d.client.Query(ctx, "items", rangePreds(110, 120), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardsQueried != 1 || res.VO == nil || len(res.Result.Tuples) != 11 {
		t.Fatalf("single-shard query: shards=%d vo=%v rows=%d", res.ShardsQueried, res.VO != nil, len(res.Result.Tuples))
	}

	// An empty cross-boundary range verifies as provably empty.
	if _, err := d.client.DeleteRange(ctx, "items", ptr(schema.Int64(95)), ptr(schema.Int64(105))); err != nil {
		t.Fatal(err)
	}
	if _, err := d.edge.Refresh(ctx, "items"); err != nil {
		t.Fatal(err)
	}
	res, err = d.client.Query(ctx, "items", rangePreds(95, 105), nil)
	if err != nil {
		t.Fatalf("empty-range query rejected: %v", err)
	}
	if len(res.Result.Tuples) != 0 {
		t.Fatalf("deleted range still returned %d rows", len(res.Result.Tuples))
	}

	// Writes through the client land on the right shards and are served
	// after a refresh (batch spanning every shard).
	var batch []schema.Tuple
	for _, id := range []int64{-10, 96, 100, 1_000} {
		batch = append(batch, row(t, id))
	}
	opErrs, err := d.client.InsertBatch(ctx, "items", batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range opErrs {
		if e != nil {
			t.Fatalf("batch op %d: %v", i, e)
		}
	}
	if _, err := d.edge.Refresh(ctx, "items"); err != nil {
		t.Fatal(err)
	}
	res, err = d.client.Query(ctx, "items", rangePreds(-10, 1_000), nil)
	if err != nil {
		t.Fatalf("post-insert cross-shard query rejected: %v", err)
	}
	// 400 initial - 11 deleted + 4 inserted.
	if len(res.Result.Tuples) != 393 {
		t.Fatalf("got %d rows, want 393", len(res.Result.Tuples))
	}
}

func ptr(d schema.Datum) *schema.Datum { return &d }

func row(t testing.TB, id int64) schema.Tuple {
	t.Helper()
	sch, err := workload.DefaultSpec(1).Schema()
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]schema.Datum, len(sch.Columns))
	vals[0] = schema.Int64(id)
	for i := 1; i < len(vals); i++ {
		vals[i] = schema.Str("shard-e2e-payload")
	}
	return schema.Tuple{Values: vals}
}

// TestDropShardAttackFailsVerification: a compromised edge serving a
// doctored shard map (one shard hidden) cannot get a truncated range
// answer accepted — the map signature covers the shard list and the
// boundary keys.
func TestDropShardAttackFailsVerification(t *testing.T) {
	ctx := context.Background()
	d := deploySharded(t, 400, 4)

	// Sanity: honest answer first (also warms the client's map cache —
	// the attack must still be caught through the per-answer maps).
	res, err := d.client.Query(ctx, "items", rangePreds(0, 399), nil)
	if err != nil || len(res.Result.Tuples) != 400 {
		t.Fatalf("honest query: rows=%d err=%v", len(res.Result.Tuples), err)
	}

	attack := tamper.DropShardFromMap()
	d.edge.SetMapTamper(func(sm *shardmap.Signed) *shardmap.Signed {
		if err := attack.Apply(sm); err != nil {
			t.Errorf("attack inapplicable: %v", err)
		}
		return sm
	})
	if _, err := d.client.Query(ctx, "items", rangePreds(0, 399), nil); !errors.Is(err, ErrTampered) {
		t.Fatalf("drop-shard attack returned %v, want ErrTampered", err)
	}

	// A fresh client (no cached map) is also protected at routing time.
	fresh := d.freshClient(t)
	if _, err := fresh.Query(ctx, "items", rangePreds(0, 399), nil); !errors.Is(err, ErrTampered) {
		t.Fatalf("drop-shard attack on fresh client returned %v, want ErrTampered", err)
	}

	// Rewiring digests between shards is equally fatal.
	rewire := tamper.RewireShardDigests()
	d.edge.SetMapTamper(func(sm *shardmap.Signed) *shardmap.Signed {
		if err := rewire.Apply(sm); err != nil {
			t.Errorf("attack inapplicable: %v", err)
		}
		return sm
	})
	if _, err := d.client.Query(ctx, "items", rangePreds(0, 399), nil); !errors.Is(err, ErrTampered) {
		t.Fatalf("rewire attack returned %v, want ErrTampered", err)
	}

	// Clearing the hook restores verifiable answers.
	d.edge.SetMapTamper(nil)
	if res, err := d.client.Query(ctx, "items", rangePreds(0, 399), nil); err != nil || len(res.Result.Tuples) != 400 {
		t.Fatalf("post-attack honest query: rows=%d err=%v", len(res.Result.Tuples), err)
	}
}

// TestStaleShardAttackFailsVerification: a compromised edge answering
// one shard of a cross-shard range from a frozen old replica (each VO
// individually authentic) is caught by the shard-map binding: the
// replayed VO anchors at the shard's old root digest, not the one the
// current signed map pins.
func TestStaleShardAttackFailsVerification(t *testing.T) {
	ctx := context.Background()
	d := deploySharded(t, 400, 4)

	// Capture shard 1's verified answer for its whole range.
	sm, err := d.edge.SignedShardMap("items")
	if err != nil {
		t.Fatal(err)
	}
	b0, b1 := sm.Map.Boundaries[0].I, sm.Map.Boundaries[1].I
	stale, err := d.client.Query(ctx, "items", rangePreds(b0, b1-1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stale.ShardsQueried != 1 {
		t.Fatalf("capture query touched %d shards, want 1", stale.ShardsQueried)
	}

	// Move shard 1 forward: delete a band inside it, refresh the edge.
	if _, err := d.client.DeleteRange(ctx, "items", ptr(schema.Int64(b0+10)), ptr(schema.Int64(b0+19))); err != nil {
		t.Fatal(err)
	}
	if _, err := d.edge.Refresh(ctx, "items"); err != nil {
		t.Fatal(err)
	}

	// Honest cross-shard answer reflects the delete.
	res, err := d.client.Query(ctx, "items", rangePreds(0, 399), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Result.Tuples) != 390 {
		t.Fatalf("post-delete honest query: %d rows, want 390", len(res.Result.Tuples))
	}

	// Now freeze shard 1 at its pre-delete answer. The replay would
	// resurrect the 10 deleted rows with individually-valid signatures.
	attack := tamper.ReplayStaleShard(stale.Result, stale.VO)
	d.edge.SetTamper(func(rs *vo.ResultSet, w *vo.VO) error {
		// Other shards' answers pass through untouched.
		if err := attack.Apply(rs, w); err != nil && !errors.Is(err, tamper.ErrNotApplicable) {
			return err
		}
		return nil
	})
	if _, err := d.client.Query(ctx, "items", rangePreds(0, 399), nil); !errors.Is(err, ErrTampered) {
		t.Fatalf("stale-shard replay returned %v, want ErrTampered", err)
	}

	d.edge.SetTamper(nil)
	if res, err := d.client.Query(ctx, "items", rangePreds(0, 399), nil); err != nil || len(res.Result.Tuples) != 390 {
		t.Fatalf("post-attack honest query: rows=%d err=%v", len(res.Result.Tuples), err)
	}
}

// freshClient dials a second client at the deployment's servers.
func (d *deployment) freshClient(t *testing.T) *Client {
	t.Helper()
	cl, err := Dial(context.Background(), Config{
		EdgeAddr:    d.client.cfg.EdgeAddr,
		CentralAddr: d.client.cfg.CentralAddr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.FetchTrustedKey(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestStatsCounters: the observability snapshot moves with real
// traffic — queries, VO bytes, sign ops, batch rounds, refreshes.
func TestStatsCounters(t *testing.T) {
	ctx := context.Background()
	d := deploySharded(t, 200, 2)

	if _, err := d.client.Query(ctx, "items", rangePreds(0, 199), nil); err != nil {
		t.Fatal(err)
	}
	var batch []schema.Tuple
	for _, id := range []int64{500, 501, 502} {
		batch = append(batch, row(t, id))
	}
	if _, err := d.client.InsertBatch(ctx, "items", batch); err != nil {
		t.Fatal(err)
	}
	if _, err := d.edge.Refresh(ctx, "items"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.client.Query(ctx, "items", rangePreds(500, 502), nil); err != nil {
		t.Fatal(err)
	}

	cs := d.central.Stats()
	if cs.SignOps == 0 {
		t.Fatal("central SignOps never moved")
	}
	if cs.InsertsApplied != 3 {
		t.Fatalf("central InsertsApplied = %d, want 3", cs.InsertsApplied)
	}
	if cs.BatchRounds == 0 || cs.BatchOps != 3 || cs.MaxRound != 3 {
		t.Fatalf("central batch counters: rounds=%d ops=%d max=%d", cs.BatchRounds, cs.BatchOps, cs.MaxRound)
	}
	if cs.ShardMapsServed == 0 || cs.SnapshotsServed == 0 {
		t.Fatalf("central replication counters: maps=%d snapshots=%d", cs.ShardMapsServed, cs.SnapshotsServed)
	}

	es := d.edge.Stats()
	// First query touched 2 shards, second 1.
	if es.QueriesServed < 3 {
		t.Fatalf("edge QueriesServed = %d, want >= 3", es.QueriesServed)
	}
	if es.VOBytes == 0 {
		t.Fatal("edge VOBytes never moved")
	}
	if es.RefreshesApplied == 0 || es.DeltasApplied == 0 {
		t.Fatalf("edge refresh counters: refreshes=%d deltas=%d", es.RefreshesApplied, es.DeltasApplied)
	}
	if es.SnapshotsInstalled < 2 {
		t.Fatalf("edge SnapshotsInstalled = %d, want >= 2 (one per shard at pull)", es.SnapshotsInstalled)
	}
}

// TestOneShardTableUsesShardFrames: a plain table (Options.Shards zero)
// is a one-shard map, answered by the same scatter-gather as a
// partitioned one.
func TestOneShardTableUsesShardFrames(t *testing.T) {
	ctx := context.Background()
	for name, d := range map[string]*deployment{
		"shards=1":    deploySharded(t, 100, 1),
		"plain table": deploy(t, 100),
	} {
		res, err := d.client.Query(ctx, "items", rangePreds(0, 99), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.ShardsQueried != 1 || len(res.ShardVOs) != 1 || res.VO != res.ShardVOs[0] || len(res.Result.Tuples) != 100 {
			t.Fatalf("%s: shards=%d vos=%d rows=%d", name, res.ShardsQueried, len(res.ShardVOs), len(res.Result.Tuples))
		}
	}
}
