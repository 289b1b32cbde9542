package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/verify"
	"edgeauth/internal/vo"
	"edgeauth/internal/workload"
)

// TestOpensDatabaseWrittenByParentCommit opens an on-disk database this
// very command wrote (`vbgen -rows 150 -scheme rsa-merkle -keybits 512
// -pagesize 1024`) at the commit that introduced commitment version 7 —
// the parent of every change after it — audits every digest on its pages
// and checks that answers served from them verify against the root
// signature made back then: persisted state outlives the code that
// produced it. The files are the bytes that commit wrote, by their
// SHA-256.
//
// It replaces the database 27636ac wrote, whose records commit under
// version 6 and are refused (TestRefusesDatabaseOfAnotherCommitment).
func TestOpensDatabaseWrittenByParentCommit(t *testing.T) {
	dir := fixture(t, "column-v7", map[string]string{
		"pages.db": "f00c161609e52bc96bddbda0e0e0b03d46330bafa85b5f690f40516ca8bba322",
		"meta.bin": "b5af766e47cef62b2332e1389cb9ffd3a397494df7c68cce8e533198cb69db4b",
		"key.pub":  "75ab895575f29feec6697e919034ac4fddfdd1c60ae0f6b3d22e47411ee84475",
	})
	db, err := openFromDisk(filepath.Join(dir, "pages.db"), filepath.Join(dir, "meta.bin"), filepath.Join(dir, "key.pub"))
	if err != nil {
		t.Fatal(err)
	}
	if db.pub.Scheme != sig.SchemeRSAMerkle {
		t.Fatalf("fixture key is %v, want rsa-merkle", db.pub.Scheme)
	}
	n, err := db.audit()
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
		rs, w, err := db.view.RunQuery(context.Background(), vbtree.Query{Lo: &lo, Hi: &hi, Project: q.project})
		if err != nil {
			t.Fatal(err)
		}
		if err := ver.Verify(rs, w); err != nil {
			t.Errorf("[%d,%d] project %v: %v", q.lo, q.hi, q.project, err)
		}
	}
}

// TestRefusesDatabaseOfAnotherCommitment: the database 27636ac wrote
// (`vbgen -rows 150 -scheme rsa-merkle -keybits 512 -pagesize 1024`)
// holds heap records that commit a tuple to a digest per column, the
// key's included — commitment version 6 — which this build no longer
// computes. Opening it fails, and the error names both versions; it is
// not left to an audit to report a digest mismatch.
func TestRefusesDatabaseOfAnotherCommitment(t *testing.T) {
	dir := fixture(t, "parent-27636ac", map[string]string{
		"pages.db": "5a1102e00d9f3bc55db99d7d48401104df8d2ebcb549ee197c5895db836db8e8",
		"meta.bin": "b42ac4dd5231f617bae29ff710a4d5763358d1168226863349c7932a9e72ac96",
		"key.pub":  "60cf36a27f42e683d2cd4cae045d5813110f2b3fe912691eed9d1d1c2fa2313b",
	})
	_, err := openFromDisk(filepath.Join(dir, "pages.db"), filepath.Join(dir, "meta.bin"), filepath.Join(dir, "key.pub"))
	if !errors.Is(err, vo.ErrCommitmentVersion) || !strings.Contains(err.Error(), "commitment version 6") ||
		!strings.Contains(err.Error(), "version 7") {
		t.Fatalf("opening a version-6 database: %v, want vo.ErrCommitmentVersion naming versions 6 and 7", err)
	}
}

// fixture copies testdata/name into a scratch directory, each file
// checked against its SHA-256 first.
func fixture(t *testing.T, name string, sums map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for file, sum := range sums {
		blob, err := os.ReadFile(filepath.Join("testdata", name, file))
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256.Sum256(blob); hex.EncodeToString(got[:]) != sum {
			t.Fatalf("%s/%s hashes to %x, not to the file that was written", name, file, got)
		}
		if err := os.WriteFile(filepath.Join(dir, file), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}
