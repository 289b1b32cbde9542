package client

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"edgeauth/internal/schema"
	"edgeauth/internal/vo"
)

// acceptCounter counts the connections a listener hands out.
type acceptCounter struct {
	net.Listener
	accepted atomic.Int64
}

func (l *acceptCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestGatherShapes: a query that one shard answers is issued on the
// caller's own goroutine, one that several answer is scattered; over the
// same deployment both verify and return their rows complete and in key
// order. The inline call keeps what the per-shard goroutine gave: a
// context cancelled while it waits for the edge ends the query with the
// context's error at once, and the connection — still carrying the
// abandoned request — serves the next query without a redial. (The
// scattered query may have opened a second connection: the client's
// rpc.Conn opens one per processor for calls that overlap.)
func TestGatherShapes(t *testing.T) {
	ctx := context.Background()
	var edgeConns *acceptCounter
	d := deployShardedBehind(t, 400, 4, func(l net.Listener) net.Listener {
		edgeConns = &acceptCounter{Listener: l}
		return edgeConns
	})

	// Boundaries sit at 100/200/300.
	for _, tc := range []struct {
		name   string
		lo, hi int64
		shards int
	}{
		{"one shard", 110, 180, 1},
		{"two shards", 150, 250, 2},
	} {
		res, err := d.client.Query(ctx, "items", rangePreds(tc.lo, tc.hi), nil)
		if err != nil {
			t.Fatalf("%s: honest query rejected: %v", tc.name, err)
		}
		if res.ShardsQueried != tc.shards || len(res.ShardVOs) != tc.shards || (res.VO != nil) != (tc.shards == 1) {
			t.Fatalf("%s: queried %d shards, %d VOs, single VO set: %v", tc.name, res.ShardsQueried, len(res.ShardVOs), res.VO != nil)
		}
		if n := int64(len(res.Result.Keys)); n != tc.hi-tc.lo+1 {
			t.Fatalf("%s: %d rows, want %d", tc.name, n, tc.hi-tc.lo+1)
		}
		for i, k := range res.Result.Keys {
			if want := schema.Int64(tc.lo + int64(i)); k.Compare(want) != 0 {
				t.Fatalf("%s: row %d has key %v, want %v", tc.name, i, k, want)
			}
		}
	}

	// The edge holds the next answer back (a compromised-edge hook that
	// waits) while the client's one-shard call is in flight.
	var (
		held    atomic.Bool
		entered = make(chan struct{})
		release = make(chan struct{})
	)
	d.attack(func(*vo.ResultSet, *vo.VO) error {
		if held.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
		return nil
	})
	defer d.heal()
	defer close(release)

	dialled := edgeConns.accepted.Load()
	waiting, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := d.client.Query(waiting, "items", rangePreds(120, 120), nil)
		done <- err
	}()
	<-entered
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("query cancelled mid-call: err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a query whose context was cancelled kept waiting for the edge")
	}

	// The abandoned request is still held at the edge; the connection it
	// went out on carries the next one.
	res, err := d.client.Query(ctx, "items", rangePreds(120, 125), nil)
	if err != nil || len(res.Result.Keys) != 6 {
		t.Fatalf("query after the cancelled one: %v", err)
	}
	if n := edgeConns.accepted.Load(); n != dialled {
		t.Fatalf("the cancelled call left the client dialling: %d connections to the edge, %d before it", n, dialled)
	}
}
