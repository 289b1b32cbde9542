package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/verify"
	"edgeauth/internal/workload"
)

// TestOpensDatabaseWrittenByParentCommit opens an on-disk database this
// very command wrote at the PARENT commit (27636ac: `vbgen -rows 150
// -scheme rsa-merkle -keybits 512 -pagesize 1024`), audits every digest
// on its pages and checks that answers served from them verify against
// the root signature made back then — persisted state outlives the code
// that produced it. The files are the bytes 27636ac wrote, by their
// SHA-256.
//
// It replaces a per-node rsa database written by 253a3c6: that scheme is
// retired, and its key blob no longer decodes.
func TestOpensDatabaseWrittenByParentCommit(t *testing.T) {
	dir := t.TempDir()
	for name, sum := range map[string]string{
		"pages.db": "5a1102e00d9f3bc55db99d7d48401104df8d2ebcb549ee197c5895db836db8e8",
		"meta.bin": "b42ac4dd5231f617bae29ff710a4d5763358d1168226863349c7932a9e72ac96",
		"key.pub":  "60cf36a27f42e683d2cd4cae045d5813110f2b3fe912691eed9d1d1c2fa2313b",
	} {
		blob, err := os.ReadFile(filepath.Join("testdata", "parent-27636ac", name))
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256.Sum256(blob); hex.EncodeToString(got[:]) != sum {
			t.Fatalf("%s hashes to %x, not to the file 27636ac wrote", name, got)
		}
		if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := openFromDisk(filepath.Join(dir, "pages.db"), filepath.Join(dir, "meta.bin"), filepath.Join(dir, "key.pub"))
	if err != nil {
		t.Fatal(err)
	}
	if db.pub.Scheme != sig.SchemeRSAMerkle {
		t.Fatalf("fixture key is %v, want rsa-merkle", db.pub.Scheme)
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
