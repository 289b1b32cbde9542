package edge

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"edgeauth/internal/central"
	"edgeauth/internal/rpc"
	"edgeauth/internal/wire"
)

// serveHandler serves one rpc.Handler on loopback — a scripted peer or a
// scripted central.
func serveHandler(t *testing.T, h rpc.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				rpc.ServeConn(conn, h, rpc.ServeOptions{})
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// TestSourceRules drives the two fetchers' source rules with scripted
// sources that relay only payloads the central really signed — so every
// rejection below is the source rule's, not the signature check's.
//
// A peer must land exactly on the verified map's pin (snapshots) or make
// strict forward progress from the store's exact head (deltas), and may
// never answer SnapshotNeeded or a noop: anything else fails that source
// over — once per shard that had a request in flight with it, so
// PeerFailovers +1 or +2 for the two shards fetched at the same time — and
// the central finishes the round. Only the central may lead the map; what
// it serves ahead of the map is bound to the final map before the set is
// published.
func TestSourceRules(t *testing.T) {
	ctx := context.Background()

	// script is what a case makes the scripted peer answer with; srv is
	// the central the edge replicates from, twin a second incarnation of
	// the same table under the same key (another epoch).
	type script struct {
		snapshot func(req *wire.ShardSnapshotRequest) ([]byte, error)
		delta    func(req *wire.ShardDeltaRequest) ([]byte, error)
	}
	honestSnapshot := func(srv *central.Server) func(*wire.ShardSnapshotRequest) ([]byte, error) {
		return func(req *wire.ShardSnapshotRequest) ([]byte, error) {
			snap, err := srv.ShardSnapshotByID(req.Table, req.ShardID)
			if err != nil {
				return nil, err
			}
			return snap.Encode(), nil
		}
	}
	deltaFrom := func(srv *central.Server, id, from uint64) ([]byte, error) {
		epoch, err := srv.TableEpoch("items")
		if err != nil {
			return nil, err
		}
		d, err := srv.ShardDeltaByID("items", id, from, epoch)
		if err != nil {
			return nil, err
		}
		return d.Encode(), nil
	}
	// commitBoth dirties both shards of a 2-shard table, so a refresh asks
	// for two different shard refs. (Scripts call it from the scripted
	// source's goroutine, hence Error, not Fatal.)
	commitBoth := func(srv *central.Server, seq int64) {
		for _, id := range []int64{-10 - seq, 500_000 + seq} {
			if err := srv.Insert("items", freshRow(t, id)); err != nil {
				t.Error(err)
			}
		}
	}

	cases := []struct {
		name string
		// bootstrapped cases pull honestly first and are scripted (script
		// runs before the commit) on the refresh after a commit; the
		// others are scripted on the bootstrap.
		bootstrapped bool
		script       func(srv, twin *central.Server) script
	}{
		{"peer snapshot behind the pin", false, func(srv, _ *central.Server) script {
			stale := make(map[uint64][]byte)
			for _, id := range []uint64{1, 2} {
				snap, err := srv.ShardSnapshotByID("items", id)
				if err != nil {
					t.Fatal(err)
				}
				stale[id] = snap.Encode()
			}
			commitBoth(srv, 0)
			return script{snapshot: func(req *wire.ShardSnapshotRequest) ([]byte, error) { return stale[req.ShardID], nil }}
		}},
		{"peer snapshot ahead of the pin", false, func(srv, _ *central.Server) script {
			honest := honestSnapshot(srv)
			return script{snapshot: func(req *wire.ShardSnapshotRequest) ([]byte, error) {
				// The edge verified its map before asking: commit now and
				// the served snapshot runs ahead of that map.
				commitBoth(srv, int64(req.ShardID))
				return honest(req)
			}}
		}},
		{"peer delta that is SnapshotNeeded", true, func(srv, _ *central.Server) script {
			return script{delta: func(req *wire.ShardDeltaRequest) ([]byte, error) {
				return deltaFrom(srv, req.ShardID, req.FromVersion+1_000)
			}}
		}},
		{"peer delta that is a noop", true, func(srv, _ *central.Server) script {
			noop := make(map[uint64][]byte)
			for _, id := range []uint64{1, 2} {
				body, err := deltaFrom(srv, id, 0)
				if err != nil {
					t.Fatal(err)
				}
				noop[id] = body
			}
			return script{delta: func(req *wire.ShardDeltaRequest) ([]byte, error) { return noop[req.ShardID], nil }}
		}},
		{"peer delta for another shard ref", true, func(srv, _ *central.Server) script {
			return script{delta: func(req *wire.ShardDeltaRequest) ([]byte, error) {
				return deltaFrom(srv, 3-req.ShardID, req.FromVersion)
			}}
		}},
		{"peer delta from another epoch", true, func(_, twin *central.Server) script {
			return script{delta: func(req *wire.ShardDeltaRequest) ([]byte, error) {
				commitBoth(twin, int64(req.ShardID))
				return deltaFrom(twin, req.ShardID, req.FromVersion)
			}}
		}},
		{"peer delta not anchored at the head", true, func(srv, _ *central.Server) script {
			return script{delta: func(req *wire.ShardDeltaRequest) ([]byte, error) {
				commitBoth(srv, int64(req.ShardID))
				return deltaFrom(srv, req.ShardID, req.FromVersion+1)
			}}
		}},
	}
	const rows = 300
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := central.Options{PageSize: 1024, Shards: 2}
			srv, centralAddr := startCentralOpts(t, rows, opts)
			twin, _ := startCentralOpts(t, rows, opts)
			var sc atomic.Pointer[script]
			sc.Store(&script{snapshot: honestSnapshot(srv)})
			peerAddr := serveHandler(t, func(_ context.Context, mt wire.MsgType, body, _ []byte) (wire.MsgType, []byte, error) {
				switch cur := sc.Load(); {
				case mt == wire.MsgShardSnapshotReq && cur.snapshot != nil:
					req, err := wire.DecodeShardSnapshotRequest(body)
					if err != nil {
						return 0, nil, err
					}
					out, err := cur.snapshot(req)
					return wire.MsgSnapshotResp, out, err
				case mt == wire.MsgShardDeltaReq && cur.delta != nil:
					req, err := wire.DecodeShardDeltaRequest(body)
					if err != nil {
						return 0, nil, err
					}
					out, err := cur.delta(req)
					return wire.MsgDeltaResp, out, err
				}
				return 0, nil, wire.Unsupported("scripted-peer", mt)
			})
			eg := NewWithOptions(centralAddr, Options{Upstreams: []string{peerAddr}})
			t.Cleanup(func() { eg.Close() })

			if tc.bootstrapped {
				if err := eg.PullAll(ctx); err != nil {
					t.Fatal(err)
				}
				if st := eg.Stats(); st.PeerPayloadsPulled != 2 || st.PeerFailovers != 0 {
					t.Fatalf("honest bootstrap: %d peer payloads, %d failovers; want 2, 0", st.PeerPayloadsPulled, st.PeerFailovers)
				}
			}
			next := tc.script(srv, twin)
			if tc.bootstrapped {
				commitBoth(srv, 0)
			}
			sc.Store(&next)
			before := eg.Stats()
			if _, err := eg.Refresh(ctx, "items"); err != nil {
				t.Fatalf("round with a rule-breaking peer: %v", err)
			}
			after := eg.Stats()
			if got := after.PeerFailovers - before.PeerFailovers; got < 1 || got > 2 {
				t.Fatalf("peer failovers +%d, want +1 or +2 (each of the two shards in flight fails the source over at most once, then it is backed off)", got)
			}
			if got := after.PeerPayloadsPulled - before.PeerPayloadsPulled; got != 0 {
				t.Fatalf("%d rule-breaking peer payloads were accepted", got)
			}
			want, err := srv.Version("items")
			if err != nil {
				t.Fatal(err)
			}
			if v, _ := eg.Version("items"); v != want {
				t.Fatalf("edge at v%d, central at v%d: the central did not finish the round", v, want)
			}
			// No case deletes, so the central holds its build rows plus
			// every insert it applied.
			held := rows + int(srv.Stats().InsertsApplied)
			if n := verifiedCount(t, startEdge(t, eg), centralAddr, -1_000_000); n != held {
				t.Fatalf("verified rows = %d, central holds %d", n, held)
			}
		})
	}

	// The central — and only the central — may lead the map (the peer cases
	// above refuse the same snapshots from a peer): a commit landing between
	// the map fetch and the snapshots leaves them ahead of it; they are
	// accepted, the map is refetched, and every store is bound to the final
	// map's pin before anything is published. The two snapshots are asked
	// for at the same time, so the commit is made by whichever request
	// arrives first and the other waits for it: both lead the map, in either
	// order.
	t.Run("central snapshot ahead of the map", func(t *testing.T) {
		srv, _ := startCentralOpts(t, 300, central.Options{PageSize: 1024, Shards: 2})
		front := newFakeCentral(srv)
		var raced sync.Once
		addr := serveHandler(t, func(ctx context.Context, mt wire.MsgType, body, out []byte) (wire.MsgType, []byte, error) {
			if mt == wire.MsgShardSnapshotReq {
				raced.Do(func() { commitBoth(srv, 0) })
			}
			return front.dispatch(ctx, mt, body, out)
		})
		mapBefore, err := srv.Version("items")
		if err != nil {
			t.Fatal(err)
		}
		eg := New(addr)
		t.Cleanup(func() { eg.Close() })
		if err := eg.PullAll(ctx); err != nil {
			t.Fatalf("bootstrap racing a commit: %v", err)
		}
		if st := eg.Stats(); st.SnapshotsInstalled != 2 || st.PeerPayloadsPulled != 0 || st.DeltasApplied != 0 {
			t.Fatalf("%d snapshots installed, %d peer payloads, %d deltas; want 2 snapshots, all from the central, nothing else",
				st.SnapshotsInstalled, st.PeerPayloadsPulled, st.DeltasApplied)
		}
		set := eg.replica("items").set.Load()
		want, _ := srv.Version("items")
		if want == mapBefore {
			t.Fatal("no commit raced the bootstrap: the test did not exercise what it is about")
		}
		if set.smap.Map.MapVersion != want {
			t.Fatalf("published map v%d, central at v%d: the map the snapshots led was not refetched", set.smap.Map.MapVersion, want)
		}
		for i, sr := range set.shards {
			if set.smap.Map.Shards[i].Version != sr.state.Version {
				t.Fatalf("shard %d: map pins v%d, store at v%d", i, set.smap.Map.Shards[i].Version, sr.state.Version)
			}
		}
		if n := verifiedCount(t, startEdge(t, eg), addr, -1_000_000); n != 302 {
			t.Fatalf("verified rows = %d, want 302", n)
		}
	})
}
