package central

import (
	"bytes"
	"context"
	"testing"

	"edgeauth/internal/digest"
	"edgeauth/internal/schema"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/workload"
)

// auditShards runs View.Audit over every shard of the table's live pages,
// read as the central reads its trees, and checks each recomputed root
// against the tree's own root digest and the one the current map pins.
// stage names the publish audited ("split 2"), so a failure reads as the
// publish that produced garbage. It returns the tuples audited.
func auditShards(t *testing.T, srv *Server, table, stage string) int {
	t.Helper()
	tb, err := srv.table(table)
	if err != nil {
		t.Fatal(err)
	}
	m, part := tb.smap.Load(), tb.part.Load()
	total := 0
	for i, sh := range part.shards {
		var n int
		var root digest.Value
		sh.mu.RLock()
		err := sh.tree.Read(func(v *vbtree.View) (err error) {
			n, root, err = v.Audit()
			return err
		})
		want := sh.tree.RootDigest()
		sh.mu.RUnlock()
		if err != nil {
			t.Fatalf("%s: shard %d: audit: %v", stage, i, err)
		}
		if !root.Equal(want) || !bytes.Equal(root, m.Shards[i].RootDigest) {
			t.Fatalf("%s: shard %d audits to root %x; the tree holds %x, the map pins %x", stage, i, root, want, m.Shards[i].RootDigest)
		}
		total += n
	}
	return total
}

// TestShardTreesAuditToTheirRoots: after a batch, a delete that empties
// leaves, a split and a merge, every shard's pages recompute to the root
// digest its tree holds and its map pins.
func TestShardTreesAuditToTheirRoots(t *testing.T) {
	ctx := context.Background()
	srv := newReshardServer(t, 400, 4, Options{})
	rows := 400
	if n := auditShards(t, srv, "items", "build"); n != rows {
		t.Fatalf("build: audited %d tuples, want %d", n, rows)
	}
	sch, err := workload.DefaultSpec(1).Schema()
	if err != nil {
		t.Fatal(err)
	}
	var batch []schema.Tuple
	for i := int64(0); i < 50; i++ {
		vals := make([]schema.Datum, len(sch.Columns))
		vals[0] = schema.Int64(1000 + i*7)
		for c := 1; c < len(vals); c++ {
			vals[c] = schema.Str("audit-payload")
		}
		batch = append(batch, schema.Tuple{Values: vals})
	}
	if opErrs, err := srv.ApplyBatch("items", batch); err != nil {
		t.Fatal(err)
	} else {
		for _, e := range opErrs {
			if e != nil {
				t.Fatal(e)
			}
		}
	}
	rows += len(batch)
	if n := auditShards(t, srv, "items", "batch"); n != rows {
		t.Fatalf("batch: audited %d tuples, want %d", n, rows)
	}
	lo, hi := schema.Int64(120), schema.Int64(190)
	n, err := srv.DeleteRange("items", &lo, &hi)
	if err != nil {
		t.Fatal(err)
	}
	rows -= n
	if got := auditShards(t, srv, "items", "delete"); got != rows {
		t.Fatalf("delete: audited %d tuples, want %d", got, rows)
	}
	if _, err := srv.SplitShard(ctx, "items", 1, nil); err != nil {
		t.Fatal(err)
	}
	if got := auditShards(t, srv, "items", "split"); got != rows {
		t.Fatalf("split: audited %d tuples, want %d", got, rows)
	}
	if _, err := srv.MergeShards(ctx, "items", 1); err != nil {
		t.Fatal(err)
	}
	if got := auditShards(t, srv, "items", "merge"); got != rows {
		t.Fatalf("merge: audited %d tuples, want %d", got, rows)
	}
}
