package client

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"edgeauth/internal/shardmap"
	"edgeauth/internal/tamper"
	"edgeauth/internal/verify"
	"edgeauth/internal/vo"
	"edgeauth/internal/wire"
)

// TestQuerySurvivesReshardEpochRace: a client whose cached routing map
// predates an online split (or postdates a merge) must converge
// transparently — the scatter observes the partition change, refetches
// the map once, and the retried gather verifies. No ErrTampered, no
// stale answer.
func TestQuerySurvivesReshardEpochRace(t *testing.T) {
	ctx := context.Background()
	d := deploySharded(t, 400, 4)

	// Warm the routing cache on the 4-shard partition.
	res, err := d.client.Query(ctx, "items", rangePreds(0, 399), nil)
	if err != nil || res.ShardsQueried != 4 {
		t.Fatalf("pre-split query: shards=%d err=%v", res.ShardsQueried, err)
	}
	// A fixed hot range inside shard 1: what its proof costs before and
	// after that shard splits is a deterministic byte count (the carved
	// half is a smaller tree with a shorter proof): the node records and
	// 16-byte D_S digests of the ordered proof, a 16-byte top digest, the
	// 64-byte root signature and 31 bytes of header.
	hot, err := d.client.Query(ctx, "items", rangePreds(110, 129), nil)
	if err != nil || hot.VOBytes != 247 {
		t.Fatalf("hot range before the split: VO %d bytes, err=%v", hot.VOBytes, err)
	}

	// Split through the client's admin path; the edge follows on its
	// next refresh tick.
	resp, err := d.client.Reshard(ctx, &wire.ReshardRequest{Table: "items", Op: wire.ReshardSplit, Shard: 1})
	if err != nil {
		t.Fatalf("admin split: %v", err)
	}
	if resp.NumShards != 5 || resp.MapEpoch != 2 {
		t.Fatalf("split response: shards=%d epoch=%d, want 5/2", resp.NumShards, resp.MapEpoch)
	}
	if _, err := d.edge.Refresh(ctx, "items"); err != nil {
		t.Fatal(err)
	}

	// Reshard invalidated the cache, so re-prime a STALE map: dial a
	// second client, warm it pre-merge, then transition again under it.
	fresh := d.freshClient(t)
	if res, err := fresh.Query(ctx, "items", rangePreds(0, 399), nil); err != nil || res.ShardsQueried != 5 {
		t.Fatalf("post-split query: shards=%d err=%v", res.ShardsQueried, err)
	}
	if hot, err = fresh.Query(ctx, "items", rangePreds(110, 129), nil); err != nil || hot.VOBytes != 231 {
		t.Fatalf("hot range after the split: VO %d bytes, err=%v", hot.VOBytes, err)
	}
	if _, err := d.central.MergeShards(ctx, "items", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.edge.Refresh(ctx, "items"); err != nil {
		t.Fatal(err)
	}
	// fresh still routes on the 5-shard map: position 4 no longer
	// exists (ErrShardMoved under the hood) and the attached maps moved
	// to epoch 3 — both fold into one drift retry.
	res, err = fresh.Query(ctx, "items", rangePreds(0, 399), nil)
	if err != nil {
		t.Fatalf("query across a merge was not retried: %v", err)
	}
	if res.ShardsQueried != 4 || len(res.Result.Tuples) != 400 {
		t.Fatalf("post-merge query: shards=%d rows=%d, want 4/400", res.ShardsQueried, len(res.Result.Tuples))
	}
}

// TestReplayPreSplitMapFailsClosed: an edge replaying the correctly
// signed pre-split shard map cannot serve a client that has already
// verified the post-split partition — the partition-epoch ratchet
// rejects the regression as tampering (verify.ErrMapReplay), with no
// retry that could be steered to the stale map.
func TestReplayPreSplitMapFailsClosed(t *testing.T) {
	ctx := context.Background()
	d := deploySharded(t, 400, 4)

	old, err := d.edge.SignedShardMap("items")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.central.SplitShard(ctx, "items", 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.edge.Refresh(ctx, "items"); err != nil {
		t.Fatal(err)
	}
	// The client observes (and ratchets to) partition epoch 2.
	if res, err := d.client.Query(ctx, "items", rangePreds(0, 399), nil); err != nil || res.ShardsQueried != 5 {
		t.Fatalf("post-split honest query: shards=%d err=%v", res.ShardsQueried, err)
	}

	// Now the edge turns hostile and replays the pre-split map.
	d.attackMap(func(sm *shardmap.Signed) error { *sm = *old; return nil })
	// Routing maps are cached, so force the refetch path too.
	d.client.InvalidateShardMap("items")
	_, err = d.client.Query(ctx, "items", rangePreds(0, 399), nil)
	if !errors.Is(err, ErrTampered) || !errors.Is(err, verify.ErrMapReplay) {
		t.Fatalf("replayed pre-split map returned %v, want ErrTampered+ErrMapReplay", err)
	}

	d.heal()
	if res, err := d.client.Query(ctx, "items", rangePreds(0, 399), nil); err != nil || len(res.Result.Tuples) != 400 {
		t.Fatalf("post-attack honest query: rows=%d err=%v", len(res.Result.Tuples), err)
	}
}

// TestMemoisedMapFailsClosed: the verifier checks an attached map once
// per distinct bytes, and what it reuses is only what those bytes decide.
// One flipped byte is other bytes, checked in full and refused as
// tampering; and a pre-split map the verifier has memoised still meets
// the partition-epoch ratchet, which runs on every answer after the map
// check, hit or miss.
func TestMemoisedMapFailsClosed(t *testing.T) {
	ctx := context.Background()
	d := deploySharded(t, 400, 4)
	v, err := d.client.verifier(ctx, "items")
	if err != nil {
		t.Fatal(err)
	}
	old, err := d.edge.SignedShardMap("items")
	if err != nil {
		t.Fatal(err)
	}
	oldRaw := old.Encode()
	memo, err := d.client.verifyMap(ctx, v, oldRaw, "items")
	if err != nil {
		t.Fatal(err)
	}

	flipped := bytes.Clone(oldRaw)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := d.client.verifyMap(ctx, v, flipped, "items"); !errors.Is(err, ErrTampered) {
		t.Fatalf("attached map with one flipped byte: %v, want ErrTampered", err)
	}
	if sm, err := d.client.verifyMap(ctx, v, oldRaw, "items"); err != nil || sm != memo {
		t.Fatalf("the honest map after a refused one: %v (memo hit %v)", err, sm == memo)
	}

	// The client ratchets to the post-split partition…
	if _, err := d.central.SplitShard(ctx, "items", 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.edge.Refresh(ctx, "items"); err != nil {
		t.Fatal(err)
	}
	split, err := d.edge.SignedShardMap("items")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.client.noteMapEpoch("items", d.client.mapMark("items"), split.Map); err != nil {
		t.Fatal(err)
	}
	// …and the pre-split bytes, still what the verifier last checked, are
	// a memo hit that the ratchet refuses.
	issued := d.client.mapMark("items")
	sm, err := d.client.verifyMap(ctx, v, oldRaw, "items")
	if err != nil || sm != memo {
		t.Fatalf("the memoised pre-split map: %v (memo hit %v)", err, sm == memo)
	}
	if err := d.client.noteMapEpoch("items", issued, sm.Map); !errors.Is(err, ErrTampered) || !errors.Is(err, verify.ErrMapReplay) {
		t.Fatalf("replayed pre-split map on a memo hit: %v, want ErrTampered+ErrMapReplay", err)
	}
}

// TestAnswerOvertakenByNewerEpochRetries: two goroutines share one
// Client; an honest answer pinned before a split is still on the wire
// when the other goroutine verifies the post-split map and ratchets the
// client past it. Judged against the mark at arrival that answer was
// indistinguishable from the replay above (the false ErrTampered of the
// rebalance soak); judged against the mark captured when its request was
// issued it is drift, and the one retry — issued under the new mark —
// either verifies (honest edge) or, if the edge really does keep serving
// the pre-split map, fails closed on it.
func TestAnswerOvertakenByNewerEpochRetries(t *testing.T) {
	for _, hostile := range []bool{false, true} {
		name := "honest"
		if hostile {
			name = "replaying"
		}
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			d := deploySharded(t, 400, 4)
			if _, err := d.client.Query(ctx, "items", rangePreds(0, 399), nil); err != nil {
				t.Fatal(err)
			}
			old, err := d.edge.SignedShardMap("items")
			if err != nil {
				t.Fatal(err)
			}

			// The edge holds the first answer it computes — on its pinned
			// pre-split set — until released.
			held, release := make(chan struct{}), make(chan struct{})
			var first atomic.Bool
			d.attack(func(*vo.ResultSet, *vo.VO) error {
				if first.CompareAndSwap(false, true) {
					close(held)
					<-release
				}
				return nil
			})
			type outcome struct {
				res *QueryResult
				err error
			}
			late := make(chan outcome, 1)
			go func() {
				res, err := d.client.Query(ctx, "items", rangePreds(310, 329), nil)
				late <- outcome{res, err}
			}()
			<-held

			if _, err := d.central.SplitShard(ctx, "items", 0, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := d.edge.Refresh(ctx, "items"); err != nil {
				t.Fatal(err)
			}
			if res, err := d.client.Query(ctx, "items", rangePreds(0, 399), nil); err != nil || res.ShardsQueried != 5 {
				t.Fatalf("post-split query on the other goroutine: shards=%d err=%v", res.ShardsQueried, err)
			}
			if hostile {
				d.attackMap(func(sm *shardmap.Signed) error { *sm = *old; return nil })
			}
			close(release)

			got := <-late
			if hostile {
				if !errors.Is(got.err, ErrTampered) || !errors.Is(got.err, verify.ErrMapReplay) {
					t.Fatalf("edge replaying the pre-split map on the retry returned %v, want ErrTampered+ErrMapReplay", got.err)
				}
				return
			}
			if got.err != nil {
				t.Fatalf("honest answer overtaken in flight: %v", got.err)
			}
			if len(got.res.Result.Tuples) != 20 {
				t.Fatalf("retried query returned %d rows, want 20", len(got.res.Result.Tuples))
			}
		})
	}
}

// TestEpochlessMapFailsClosed: a map with no partition generation (or an
// ID-less shard) used to be exempt from the replay ratchet. The client
// now rejects the shape itself, so re-signing the stripped map with the
// real central key — the strongest form of the attack, a genuinely
// signed map from a build that predates epoch chaining — changes nothing.
func TestEpochlessMapFailsClosed(t *testing.T) {
	ctx := context.Background()
	d := deploySharded(t, 400, 4)
	if _, err := d.client.Query(ctx, "items", rangePreds(0, 399), nil); err != nil {
		t.Fatal(err)
	}
	for _, attack := range []tamper.MapAttack{tamper.StripMapEpoch(), tamper.StripShardID()} {
		for _, resign := range []bool{false, true} {
			attack, resign := attack, resign
			d.attackMap(func(sm *shardmap.Signed) error {
				if err := attack.Apply(sm); err != nil {
					t.Errorf("%s: %v", attack.Name, err)
				}
				if resign {
					sg, err := centralKey(t).Sign(sm.Map.SigPayload())
					if err != nil {
						t.Errorf("re-signing: %v", err)
					}
					sm.Sig = sg
				}
				return nil
			})
			// Both the attached map of a cached-routing query and a fresh
			// routing fetch must refuse it.
			for _, invalidate := range []bool{false, true} {
				if invalidate {
					d.client.InvalidateShardMap("items")
				}
				if _, err := d.client.Query(ctx, "items", rangePreds(0, 399), nil); !errors.Is(err, ErrTampered) {
					t.Fatalf("%s (re-signed=%v, fresh routing=%v) returned %v, want ErrTampered",
						attack.Name, resign, invalidate, err)
				}
			}
		}
	}
	d.heal()
	if res, err := d.client.Query(ctx, "items", rangePreds(0, 399), nil); err != nil || len(res.Result.Tuples) != 400 {
		t.Fatalf("post-attack honest query: rows=%d err=%v", len(res.Result.Tuples), err)
	}
}

// TestReplayCatalogueAttackOnUnratchetedClient: the catalogue's
// replay-pre-split-map attack against a client that never saw the
// post-split epoch (so the ratchet cannot fire). The replayed map is
// authentic, but the edge's answers come from the post-split trees —
// each VO anchors at a root the stale map does not pin, so the
// per-shard binding fails closed instead.
func TestReplayCatalogueAttackOnUnratchetedClient(t *testing.T) {
	ctx := context.Background()
	d := deploySharded(t, 400, 4)

	attack := tamper.ReplayPreSplitMap()
	d.attackMap(func(sm *shardmap.Signed) error {
		if err := attack.Apply(sm); err != nil && !errors.Is(err, tamper.ErrNotApplicable) {
			t.Errorf("replay attack: %v", err)
		}
		return nil
	})
	// Pre-split query: the attack captures the served map, the client
	// caches it as its routing map.
	if res, err := d.client.Query(ctx, "items", rangePreds(0, 399), nil); err != nil || res.ShardsQueried != 4 {
		t.Fatalf("pre-split query: shards=%d err=%v", res.ShardsQueried, err)
	}
	if _, err := d.central.SplitShard(ctx, "items", 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.edge.Refresh(ctx, "items"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.client.Query(ctx, "items", rangePreds(0, 399), nil); !errors.Is(err, ErrTampered) {
		t.Fatalf("hidden split returned %v, want ErrTampered", err)
	}
}

// TestHideSplitFailsClosed: forging map content — folding a split's
// children back into one shard and rewinding the epoch — breaks the
// map signature, for cached and fresh clients alike.
func TestHideSplitFailsClosed(t *testing.T) {
	ctx := context.Background()
	d := deploySharded(t, 400, 4)
	if _, err := d.central.SplitShard(ctx, "items", 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.edge.Refresh(ctx, "items"); err != nil {
		t.Fatal(err)
	}

	attack := tamper.HideSplit()
	d.attackMap(func(sm *shardmap.Signed) error {
		if err := attack.Apply(sm); err != nil {
			t.Errorf("hide-split inapplicable: %v", err)
		}
		return nil
	})
	if _, err := d.client.Query(ctx, "items", rangePreds(0, 399), nil); !errors.Is(err, ErrTampered) {
		t.Fatalf("hide-split on warm client returned %v, want ErrTampered", err)
	}
	fresh := d.freshClient(t)
	if _, err := fresh.Query(ctx, "items", rangePreds(0, 399), nil); !errors.Is(err, ErrTampered) {
		t.Fatalf("hide-split on fresh client returned %v, want ErrTampered", err)
	}
}

// TestCrossEpochSpliceFailsClosed: pairing the current partition shape
// with a superseded epoch's shard root digest is a pairing the central
// never signed — the map signature fails closed.
func TestCrossEpochSpliceFailsClosed(t *testing.T) {
	ctx := context.Background()
	d := deploySharded(t, 400, 4)

	attack := tamper.CrossEpochSplice()
	d.attackMap(func(sm *shardmap.Signed) error {
		if err := attack.Apply(sm); err != nil && !errors.Is(err, tamper.ErrNotApplicable) {
			t.Errorf("splice attack: %v", err)
		}
		return nil
	})
	// Capture pass.
	if _, err := d.client.Query(ctx, "items", rangePreds(0, 399), nil); err != nil {
		t.Fatalf("pre-split query: %v", err)
	}
	if _, err := d.central.SplitShard(ctx, "items", 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.edge.Refresh(ctx, "items"); err != nil {
		t.Fatal(err)
	}
	d.client.InvalidateShardMap("items")
	if _, err := d.client.Query(ctx, "items", rangePreds(0, 399), nil); !errors.Is(err, ErrTampered) {
		t.Fatalf("cross-epoch splice returned %v, want ErrTampered", err)
	}
}
