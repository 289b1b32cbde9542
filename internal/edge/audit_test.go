package edge

import (
	"bytes"
	"context"
	"testing"

	"edgeauth/internal/central"
	"edgeauth/internal/schema"
)

// auditSet runs View.Audit over every shard of the replica's published
// set, and checks that each recomputes exactly the root digest the signed
// map pins for its shard. It returns the tuples audited.
func auditSet(t *testing.T, eg *Server, stage string) int {
	t.Helper()
	set := eg.replica("items").set.Load()
	if len(set.shards) != len(set.smap.Map.Shards) {
		t.Fatalf("%s: %d shards published under a map of %d", stage, len(set.shards), len(set.smap.Map.Shards))
	}
	total := 0
	for i, sr := range set.shards {
		n, root, err := sr.view.Audit()
		if err != nil {
			t.Fatalf("%s: shard %d: audit: %v", stage, i, err)
		}
		if pin := set.smap.Map.Shards[i].RootDigest; !bytes.Equal(root, pin) {
			t.Fatalf("%s: shard %d audits to root %x, its map pins %x", stage, i, root, pin)
		}
		total += n
	}
	return total
}

// auditRows is auditSet asserting how many tuples the set holds.
func auditRows(t *testing.T, eg *Server, stage string, rows int) {
	t.Helper()
	if n := auditSet(t, eg, stage); n != rows {
		t.Fatalf("%s: audited %d tuples, want %d", stage, n, rows)
	}
}

// TestPublishedViewsAuditToTheirPins: whatever an edge publishes —
// bootstrap snapshots, a delta that detaches a leaf, the children of a
// split, the shard of a merge — audits digest by digest, through the
// same views queries read, to the roots its signed map pins.
func TestPublishedViewsAuditToTheirPins(t *testing.T) {
	ctx := context.Background()
	srv, centralAddr := startCentralOpts(t, 400, central.Options{PageSize: 1024, Shards: 4})
	eg := New(centralAddr)
	t.Cleanup(func() { eg.Close() })
	if err := eg.PullAll(ctx); err != nil {
		t.Fatal(err)
	}
	rows := 400
	if n := auditSet(t, eg, "bootstrap"); n != rows {
		t.Fatalf("bootstrap: audited %d tuples, want %d", n, rows)
	}

	if err := srv.Insert("items", freshRow(t, 500_000)); err != nil {
		t.Fatal(err)
	}
	lo, hi := schema.Int64(10), schema.Int64(70) // more than a 1 KB leaf holds
	n, err := srv.DeleteRange("items", &lo, &hi)
	if err != nil {
		t.Fatal(err)
	}
	rows += 1 - n
	if st, err := eg.Refresh(ctx, "items"); err != nil || st.Mode != "delta" {
		t.Fatalf("refresh after an insert and a delete: %+v, %v; want a delta", st, err)
	}
	if got := auditSet(t, eg, "delta"); got != rows {
		t.Fatalf("delta: audited %d tuples, want %d", got, rows)
	}

	if _, err := srv.SplitShard(ctx, "items", 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := eg.Refresh(ctx, "items"); err != nil {
		t.Fatal(err)
	}
	if got := auditSet(t, eg, "split"); got != rows {
		t.Fatalf("split: audited %d tuples, want %d", got, rows)
	}

	if _, err := srv.MergeShards(ctx, "items", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := eg.Refresh(ctx, "items"); err != nil {
		t.Fatal(err)
	}
	if got := auditSet(t, eg, "merge"); got != rows {
		t.Fatalf("merge: audited %d tuples, want %d", got, rows)
	}
	if n, _ := eg.NumShards("items"); n != 4 {
		t.Fatalf("edge serves %d shards after split and merge, want 4", n)
	}
}
