package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"edgeauth/internal/schema"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/verify"
	"edgeauth/internal/workload"
)

// TestOpensDatabaseWrittenByParentCommit opens an on-disk database this
// very command wrote at the PARENT commit (615aa5e: `vbgen -rows 150
// -scheme rsa-merkle -keybits 512 -pagesize 1024`), when every digest was
// computed with math/big and one g per digest. Under a Merkle scheme the
// pages hold raw digests, so the audit recomputes each of them with the
// limb kernel and compares bytes, and the queries check that answers
// served from those pages verify against the root signature made back
// then — persisted state outlives the arithmetic that produced it.
func TestOpensDatabaseWrittenByParentCommit(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"pages.db", "meta.bin", "key.pub"} {
		blob, err := os.ReadFile(filepath.Join("testdata", "parent-615aa5e", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := openFromDisk(filepath.Join(dir, "pages.db"), filepath.Join(dir, "meta.bin"), filepath.Join(dir, "key.pub"))
	if err != nil {
		t.Fatal(err)
	}
	if !db.tree.MerkleMode() {
		t.Fatal("fixture is not a Merkle-scheme database")
	}
	n, err := db.tree.Audit()
	if err != nil {
		t.Fatalf("audit of the parent commit's pages: %v", err)
	}
	if n != 150 {
		t.Fatalf("audited %d tuples, want 150", n)
	}
	ver := &verify.Verifier{Key: db.pub, Acc: db.acc, Schema: db.sch}
	for _, q := range []struct {
		lo, hi  int64
		project []string
	}{
		{37, 46, nil},
		{0, 149, workload.ProjectFirstN(db.sch, 3)},
		{75, 75, workload.ProjectFirstN(db.sch, 1)},
		{1000, 2000, nil}, // empty answer
	} {
		lo, hi := schema.Int64(q.lo), schema.Int64(q.hi)
		rs, w, err := db.tree.RunQuery(context.Background(), vbtree.Query{Lo: &lo, Hi: &hi, Project: q.project})
		if err != nil {
			t.Fatal(err)
		}
		if err := ver.Verify(rs, w); err != nil {
			t.Errorf("[%d,%d] project %v: %v", q.lo, q.hi, q.project, err)
		}
	}
}
