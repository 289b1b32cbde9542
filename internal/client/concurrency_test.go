package client

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"edgeauth/internal/central"
	"edgeauth/internal/edge"
	"edgeauth/internal/query"
	"edgeauth/internal/schema"
	"edgeauth/internal/storage"
	"edgeauth/internal/wire"
	"edgeauth/internal/workload"
)

// TestConcurrentQueriesOnePipelinedConn is the acceptance test of the
// API redesign: 64 goroutines share one Client (one multiplexed edge
// connection) and every out-of-order response must demultiplex to the
// caller that issued it. Run with -race.
func TestConcurrentQueriesOnePipelinedConn(t *testing.T) {
	ctx := context.Background()
	d := deploy(t, 400)

	// Prime the verifier cache so the workers only exercise Query.
	if _, err := d.client.Schema(ctx, "items"); err != nil {
		t.Fatal(err)
	}

	const goroutines, per = 64, 5
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// Distinct ranges per goroutine: a misrouted response
				// would carry the wrong row count or fail verification.
				lo := int64((g % 8) * 40)
				hi := lo + int64(g%5) + 1
				res, err := d.client.Query(ctx, "items", []query.Predicate{
					{Column: "id", Op: query.OpGE, Value: schema.Int64(lo)},
					{Column: "id", Op: query.OpLE, Value: schema.Int64(hi)},
				}, nil)
				if err != nil {
					errCh <- err
					return
				}
				if got, want := len(res.Result.Tuples), int(hi-lo+1); got != want {
					errCh <- errors.New("response demultiplexed to the wrong caller")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestConcurrentQueriesDuringRefresh races verified reads against
// in-place delta application on the same replica (run with -race): the
// replica lock must keep every answer internally consistent, so each
// query sees a fully-applied version and still verifies.
func TestConcurrentQueriesDuringRefresh(t *testing.T) {
	// The edge answers from page views it holds for the length of a pin;
	// a buffer recycled under one must show (see storage.SetPoisonOnRecycle).
	defer storage.SetPoisonOnRecycle(storage.SetPoisonOnRecycle(true))
	ctx := context.Background()
	d := deploy(t, 300)
	sch, err := d.client.Schema(ctx, "items")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	refreshErr := make(chan error, 1)
	go func() {
		defer close(refreshErr)
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			vals := make([]schema.Datum, len(sch.Columns))
			vals[0] = schema.Int64(40_000 + i)
			for c := 1; c < len(vals); c++ {
				vals[c] = schema.Str("refresh-race-payload")
			}
			if err := d.central.Insert("items", schema.Tuple{Values: vals}); err != nil {
				refreshErr <- err
				return
			}
			if _, err := d.edge.RefreshAll(ctx); err != nil {
				refreshErr <- err
				return
			}
		}
	}()

	const goroutines, per = 8, 10
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				res, err := d.client.Query(ctx, "items", []query.Predicate{
					{Column: "id", Op: query.OpGE, Value: schema.Int64(50)},
					{Column: "id", Op: query.OpLE, Value: schema.Int64(99)},
				}, nil)
				if err != nil {
					errCh <- err
					return
				}
				if len(res.Result.Tuples) != 50 {
					errCh <- errors.New("query raced a delta apply into an inconsistent answer")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-refreshErr; err != nil {
		t.Fatal(err)
	}
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestQueryCancellation covers both cancellation shapes: a context that
// expires while a request is in flight, and one already expired before
// the call.
func TestQueryCancellation(t *testing.T) {
	ctx := context.Background()
	d := deploy(t, 100)
	if _, err := d.client.Schema(ctx, "items"); err != nil {
		t.Fatal(err)
	}

	expired, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := d.client.Query(expired, "items", nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired ctx: err = %v, want context.Canceled", err)
	}

	shortCtx, cancel2 := context.WithTimeout(ctx, time.Millisecond)
	defer cancel2()
	<-shortCtx.Done()
	if _, err := d.client.Query(shortCtx, "items", nil, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline ctx: err = %v, want context.DeadlineExceeded", err)
	}

	// The client remains fully usable after cancellations.
	if _, err := d.client.Query(ctx, "items", []query.Predicate{
		{Column: "id", Op: query.OpLE, Value: schema.Int64(10)},
	}, nil); err != nil {
		t.Fatalf("query after cancellations: %v", err)
	}
}

// TestClientSurvivesEdgeRestart kills the edge server mid-session and
// expects the client to redial and retry the (idempotent) query instead
// of failing forever on the poisoned cached connection — the bug the old
// serial client had.
func TestClientSurvivesEdgeRestart(t *testing.T) {
	ctx := context.Background()
	srv, err := central.NewServerWithKey(central.Options{PageSize: 1024}, centralKey(t))
	if err != nil {
		t.Fatal(err)
	}
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
	centralLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(centralLn)
	t.Cleanup(func() { srv.Close() })

	eg := edge.New(centralLn.Addr().String())
	if err := eg.PullAll(ctx); err != nil {
		t.Fatal(err)
	}
	edgeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	edgeAddr := edgeLn.Addr().String()
	go eg.Serve(edgeLn)

	cl, err := Dial(ctx, Config{
		EdgeAddr:      edgeAddr,
		CentralAddr:   centralLn.Addr().String(),
		RedialBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.FetchTrustedKey(ctx); err != nil {
		t.Fatal(err)
	}
	preds := []query.Predicate{{Column: "id", Op: query.OpLE, Value: schema.Int64(20)}}
	if _, err := cl.Query(ctx, "items", preds, nil); err != nil {
		t.Fatal(err)
	}

	// Kill the edge (listener and live connections) mid-session, then
	// restart a fresh edge on the same address.
	eg.Close()
	eg2 := edge.New(centralLn.Addr().String())
	if err := eg2.PullAll(ctx); err != nil {
		t.Fatal(err)
	}
	edgeLn2, err := net.Listen("tcp", edgeAddr)
	if err != nil {
		t.Fatal(err)
	}
	go eg2.Serve(edgeLn2)
	t.Cleanup(func() { eg2.Close() })

	res, err := cl.Query(ctx, "items", preds, nil)
	if err != nil {
		t.Fatalf("query after edge restart: %v (dead cached conn not dropped?)", err)
	}
	if len(res.Result.Tuples) != 21 {
		t.Fatalf("query after restart returned %d tuples", len(res.Result.Tuples))
	}
}

// TestTypedErrorsReachTheClient checks the v2 error frames survive the
// round trip as matchable sentinels.
func TestTypedErrorsReachTheClient(t *testing.T) {
	ctx := context.Background()
	d := deploy(t, 50)
	_, err := d.client.Query(ctx, "ghost", nil, nil)
	if !errors.Is(err, wire.ErrUnknownTable) {
		t.Fatalf("unknown table error not typed: %v", err)
	}
	var we *wire.WireError
	if !errors.As(err, &we) || we.Table != "ghost" {
		t.Fatalf("typed error lost its payload: %v", err)
	}
	if err := d.client.Insert(ctx, "ghost", schema.NewTuple(schema.Int64(1))); !errors.Is(err, wire.ErrUnknownTable) {
		t.Fatalf("central unknown-table error not typed: %v", err)
	}
}
