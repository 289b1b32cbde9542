package edge

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"edgeauth/internal/israce"
	"edgeauth/internal/schema"
	"edgeauth/internal/shardmap"
	"edgeauth/internal/sig"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/verify"
	"edgeauth/internal/wire"
)

// TestDeltaApplyAllocationBudget: from the received body to the published
// successor snapshot, a delta's pages are copied once — by
// Overlay.WritePage, into the store's own buffers. The decoder hands out
// views of the body, so beyond one page buffer per applied page the edge
// allocates a fixed number of objects plus the overlay's bookkeeping (its
// write map, the successor's page table, the heap-page list), none of
// them the size of a page.
func TestDeltaApplyAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	srv, eg := merkleEdge(t, 2000)
	sr := eg.replica("items").set.Load().shards[0]
	ref := wire.ShardRef("items", eg.replica("items").set.Load().smap.Map.Shards[0].ID)
	pageSize := sr.store.PageSize()

	// One insert dirties a handful of pages, the delete after it hundreds.
	for _, commit := range []func(){
		func() {
			if err := srv.Insert("items", freshRow(t, 100_000)); err != nil {
				t.Fatal(err)
			}
		},
		func() {
			lo, hi := schema.Int64(0), schema.Int64(1500)
			if _, err := srv.DeleteRange("items", &lo, &hi); err != nil {
				t.Fatal(err)
			}
		},
	} {
		commit()
		head, err := storeState(sr.store)
		if err != nil {
			t.Fatal(err)
		}
		sd, err := srv.ShardDelta("items", 0, head.Version, head.Epoch)
		if err != nil {
			t.Fatal(err)
		}
		body := sd.Encode()
		allocatedBefore, _ := sr.store.Stats()

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := wire.DecodeDelta(body)
		if err == nil {
			err = applyDelta(sr.store, d, ref)
		}
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		pages := len(d.PageIDs)
		// The body ends with the page entries (id, length, content) and the
		// signature field.
		firstPage := len(body) - (4 + len(d.Sig)) - pages*(8+pageSize) + 8
		if pages == 0 || &d.PageData[0][0] != &body[firstPage] {
			t.Fatal("decoded page data is not a view of the received body")
		}
		allocated, _ := sr.store.Stats()
		fresh := int(allocated - allocatedBefore)
		if fresh > pages {
			t.Fatalf("%d page buffers allocated for %d applied pages", fresh, pages)
		}
		objects, bytes := int(after.Mallocs-before.Mallocs), int(after.TotalAlloc-before.TotalAlloc)
		// Per page: its buffer, if none could be recycled, and its share of
		// the write map as it grows (under 128 bytes, and a bucket every few
		// pages). Per
		// page of the store: its slot in the successor's page table. Per heap
		// page: its entry in the decoded list and in the published copy.
		wantObjects := fresh + pages/4 + 48
		wantBytes := fresh*pageSize + 128*pages + 24*int(d.NumPages) + 8*len(d.HeapPages) + 4096
		if objects > wantObjects || bytes > wantBytes {
			t.Errorf("%d-page delta: %d objects and %d bytes allocated, budget %d and %d (%d fresh page buffers)",
				pages, objects, bytes, wantObjects, wantBytes, fresh)
		}
		t.Logf("%d-page delta of %d bytes: %d objects, %d bytes, %d fresh page buffers", pages, len(body), objects, bytes, fresh)
	}
}

// TestDeltaFromParentCommitApplies: the bodies an earlier central served
// go through this edge's install, decode, signature check and apply under
// every scheme, and what the store then holds answers a full scan that
// verifies against the root digest the earlier signed map pins. Pages
// have committed by ordered hashes since protocol 6, so a store from
// before then holds digests this build does not compute: the bodies are
// what a central at protocol 6 served (testdata/ordered-v6: 40 rows on
// 1 KB pages, one inserted, three deleted).
func TestDeltaFromParentCommitApplies(t *testing.T) {
	ctx := context.Background()
	for _, scheme := range []string{"rsa-merkle", "ed25519"} {
		t.Run(scheme, func(t *testing.T) {
			read := func(name string) []byte {
				t.Helper()
				b, err := os.ReadFile(filepath.Join("..", "wire", "testdata", "ordered-v6", scheme, name))
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			pub := new(sig.PublicKey)
			if err := pub.UnmarshalBinary(read("key.pub")); err != nil {
				t.Fatal(err)
			}
			snap, err := wire.DecodeSnapshot(read("snapshot.bin"))
			if err != nil {
				t.Fatal(err)
			}
			store, err := installStore(snap)
			if err != nil {
				t.Fatal(err)
			}
			body := read("delta.bin")
			d, err := wire.DecodeDelta(body)
			if err != nil {
				t.Fatal(err)
			}
			payload, err := d.SigPayloadOfBody(body)
			if err != nil {
				t.Fatal(err)
			}
			if err := pub.Verify(d.Sig, payload); err != nil {
				t.Fatalf("delta signature: %v", err)
			}
			if err := applyDelta(store, d, d.Table); err != nil {
				t.Fatal(err)
			}
			sm, err := shardmap.DecodeSigned(read("map.bin"))
			if err != nil {
				t.Fatal(err)
			}
			if err := pub.Verify(sm.Sig, sm.Map.SigPayload()); err != nil {
				t.Fatalf("map signature: %v", err)
			}
			pinned, err := (&replica{sch: snap.Schema}).pinCurrent(store)
			if err != nil {
				t.Fatal(err)
			}
			defer pinned.snap.Release()
			if pinned.state.Version != sm.Map.Shards[0].Version {
				t.Fatalf("store at v%d, the parent's map pins v%d", pinned.state.Version, sm.Map.Shards[0].Version)
			}
			rs, w, err := pinned.view.RunQuery(ctx, vbtree.Query{AnchorRoot: true})
			if err != nil {
				t.Fatal(err)
			}
			ver := &verify.Verifier{Key: pub, Acc: acc, Schema: snap.Schema}
			if err := ver.VerifyAnchored(rs, w, sm.Map.Shards[0].RootDigest); err != nil {
				t.Fatal(err)
			}
			// 40 rows, one inserted, three deleted.
			if len(rs.Tuples) != 38 {
				t.Fatalf("%d rows after the parent's delta, want 38", len(rs.Tuples))
			}
		})
	}
}
