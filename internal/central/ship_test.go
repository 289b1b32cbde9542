package central

import (
	"context"
	"sync"
	"testing"

	"edgeauth/internal/costmodel"
	"edgeauth/internal/schema"
	"edgeauth/internal/shardmap"
	"edgeauth/internal/sig"
	"edgeauth/internal/wire"
	"edgeauth/internal/workload"
)

// replica is what a pulling edge holds of the "items" table: the version
// of each shard it has, by stable ID.
type replica map[uint64]uint64

// replicaOf is a replica holding every shard of sm at the version sm
// pins.
func replicaOf(sm *shardmap.Signed) replica {
	r := replica{}
	for _, pin := range sm.Map.Shards {
		r[pin.ID] = pin.Version
	}
	return r
}

// pull brings r to the central's current map the way an edge does — the
// signed map, then a delta for every shard r holds behind its pin and a
// snapshot of every shard it does not hold — through the serving path,
// checks that every root shipped authenticates the digest the map pins,
// and returns the signatures the central made for it.
func pull(t *testing.T, srv *Server, r replica) uint64 {
	t.Helper()
	before := srv.Stats().SignOps
	call := func(mt wire.MsgType, body []byte) []byte {
		t.Helper()
		_, resp, err := srv.dispatch(context.Background(), mt, body, nil)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	pub := srv.PublicKey()
	sm, err := shardmap.DecodeSigned(call(wire.MsgShardMapReq, []byte("items")))
	if err != nil {
		t.Fatal(err)
	}
	if err := sm.Verify(pub); err != nil {
		t.Fatal(err)
	}
	live := map[uint64]bool{}
	for _, pin := range sm.Map.Shards {
		live[pin.ID] = true
		var rootSig []byte
		if v, held := r[pin.ID]; !held {
			snap, err := wire.DecodeSnapshot(call(wire.MsgShardSnapshotReq, (&wire.ShardSnapshotRequest{Table: "items", ShardID: pin.ID}).Encode()))
			if err != nil {
				t.Fatal(err)
			}
			rootSig = snap.RootSig
		} else if v < pin.Version {
			d, err := wire.DecodeDelta(call(wire.MsgShardDeltaReq, (&wire.ShardDeltaRequest{Table: "items", ShardID: pin.ID, FromVersion: v, Epoch: sm.Map.Epoch}).Encode()))
			if err != nil {
				t.Fatal(err)
			}
			if d.SnapshotNeeded || d.ToVersion != pin.Version {
				t.Fatalf("shard %d: delta from v%d reached v%d (snapshot needed: %v), the map pins v%d", pin.ID, v, d.ToVersion, d.SnapshotNeeded, pin.Version)
			}
			rootSig = d.RootSig
		} else {
			continue
		}
		if err := pub.Verify(rootSig, pin.RootDigest); err != nil {
			t.Fatalf("shard %d v%d: shipped root signature: %v", pin.ID, pin.Version, err)
		}
		r[pin.ID] = pin.Version
	}
	for id := range r {
		if !live[id] {
			delete(r, id)
		}
	}
	return srv.Stats().SignOps - before
}

// TestShipLedger ties the central's signature ledger to the cost model,
// exactly, under each scheme. A commit touching k shards signs nothing;
// the first pull after it signs the map, the k delta bodies and the k
// roots; a second replica pulling the same versions pays only its k
// bodies. A split or merge signs nothing, and the first pull of the new
// generation signs the map plus one root per child (a replica takes a
// shard it never held as a snapshot, which carries no signature of its
// own).
func TestShipLedger(t *testing.T) {
	for _, scheme := range []sig.Scheme{sig.SchemeRSAMerkle, sig.SchemeEd25519} {
		t.Run(scheme.String(), func(t *testing.T) {
			key, err := sig.Generate(scheme, 512)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := NewServerWithKey(Options{PageSize: 1024, Shards: 4}, key)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			spec := workload.DefaultSpec(400)
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
			signs := func() uint64 { return srv.Stats().SignOps }
			first, second := replica{}, replica{}
			if got, want := pull(t, srv, first), costmodel.PullSignOps(4, 0); got != uint64(want) {
				t.Errorf("bootstrap pull of 4 shards signed %d, want %d", got, want)
			}
			pull(t, srv, second)

			// One commit into shards 0 and 3, then one delete from shards 0
			// and 1 (keys 0–399 split by count at 100, 200 and 300).
			lo, hi := schema.Int64(99), schema.Int64(100)
			for _, c := range []struct {
				name   string
				shards []int
				commit func() error
			}{
				{"insert", []int{0, 3}, func() error {
					opErrs, err := srv.ApplyBatch("items", []schema.Tuple{batchServerRow(t, -5), batchServerRow(t, 1_000_000)})
					if err == nil {
						err = opErrs[0]
					}
					if err == nil {
						err = opErrs[1]
					}
					return err
				}},
				{"delete", []int{0, 1}, func() error {
					n, err := srv.DeleteRange("items", &lo, &hi)
					if err == nil && n != 2 {
						t.Fatalf("delete removed %d rows, want 2", n)
					}
					return err
				}},
			} {
				k := len(c.shards)
				before := signs()
				if err := c.commit(); err != nil {
					t.Fatal(err)
				}
				if got := signs() - before; got != 0 {
					t.Errorf("%s commit touching %d shards signed %d, want none", c.name, k, got)
				}
				if got, want := pull(t, srv, first), costmodel.PullSignOps(k, k); got != uint64(want) {
					t.Errorf("first pull after the %s signed %d, want %d (map, %d bodies, %d roots)", c.name, got, want, k, k)
				}
				if got := pull(t, srv, second); got != uint64(k) {
					t.Errorf("second pull after the %s signed %d, want its %d delta bodies", c.name, got, k)
				}
			}

			// Split shard 1, then merge its two children back.
			for _, c := range []struct {
				name       string
				children   int
				transition func() (*wire.ReshardResponse, error)
			}{
				{"split", 2, func() (*wire.ReshardResponse, error) { return srv.SplitShard(context.Background(), "items", 1, nil) }},
				{"merge", 1, func() (*wire.ReshardResponse, error) { return srv.MergeShards(context.Background(), "items", 1) }},
			} {
				before := signs()
				if _, err := c.transition(); err != nil {
					t.Fatal(err)
				}
				if got := signs() - before; got != 0 {
					t.Errorf("%s signed %d, want none", c.name, got)
				}
				if got, want := pull(t, srv, first), costmodel.PullSignOps(c.children, 0); got != uint64(want) {
					t.Errorf("first pull after the %s signed %d, want %d", c.name, got, want)
				}
				if got := pull(t, srv, second); got != 0 {
					t.Errorf("second pull after the %s signed %d, want 0", c.name, got)
				}
			}
		})
	}
}

// TestShipMintsOncePerItem: replicas pulling the same map version and the
// same shard versions at once cost exactly one signature per distinct
// item — the map and each shard root shipped — however many pull.
func TestShipMintsOncePerItem(t *testing.T) {
	srv := newReshardServer(t, 200, 2, Options{})
	if _, err := srv.ApplyBatch("items", []schema.Tuple{batchServerRow(t, -5), batchServerRow(t, 1_000_000)}); err != nil {
		t.Fatal(err)
	}
	const pullers = 8
	before := srv.Stats().SignOps
	var wg sync.WaitGroup
	for g := 0; g < pullers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pub := srv.PublicKey()
			sm, err := srv.SignedShardMap("items")
			if err != nil {
				t.Error(err)
				return
			}
			if err := sm.Verify(pub); err != nil {
				t.Error(err)
				return
			}
			for _, pin := range sm.Map.Shards {
				snap, err := srv.ShardSnapshotByID("items", pin.ID)
				if err != nil {
					t.Error(err)
					return
				}
				if err := pub.Verify(snap.RootSig, pin.RootDigest); err != nil {
					t.Errorf("shard %d: %v", pin.ID, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := srv.Stats().SignOps - before; got != 3 {
		t.Fatalf("%d concurrent pulls of one map and two shard roots signed %d times, want 3", pullers, got)
	}
}
