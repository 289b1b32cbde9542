package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"edgeauth/internal/schema"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/verify"
	"edgeauth/internal/workload"
)

// TestOpensDatabaseWrittenByParentCommit opens an on-disk database this
// very command wrote at the PARENT commit (253a3c6: `vbgen -rows 150
// -scheme rsa -keybits 512 -pagesize 1024`), audits every digest on its
// pages and checks that answers served from them verify against the root
// signature made back then — persisted state outlives the code that
// produced it. The files are the bytes 253a3c6 wrote, by their SHA-256.
//
// It is a per-node rsa database because that commitment is the paper's
// and has not changed. The Merkle schemes commit by ordered hashes since
// protocol 6, so a Merkle database from before then (the 615aa5e fixture
// this one replaces) holds digests this build does not compute, and is
// refused by its audit.
func TestOpensDatabaseWrittenByParentCommit(t *testing.T) {
	dir := t.TempDir()
	for name, sum := range map[string]string{
		"pages.db": "c89aa8b6c81bc2fd1d5da30d23507317f0230d081b3a3503d78b04fe71e7aabc",
		"meta.bin": "96f6e952df7d515ecadcac7d8331b3221ea7b81a0d88b2b4e18e6648f50610e3",
		"key.pub":  "0da70faf0cfc3938039c475c8a86bfb889ee8476f0c1c6195e260355ba890f28",
	} {
		blob, err := os.ReadFile(filepath.Join("testdata", "parent-253a3c6", name))
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256.Sum256(blob); hex.EncodeToString(got[:]) != sum {
			t.Fatalf("%s hashes to %x, not to the file 253a3c6 wrote", name, got)
		}
		if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := openFromDisk(filepath.Join(dir, "pages.db"), filepath.Join(dir, "meta.bin"), filepath.Join(dir, "key.pub"))
	if err != nil {
		t.Fatal(err)
	}
	if db.tree.MerkleMode() {
		t.Fatal("fixture is not a per-node rsa database")
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
