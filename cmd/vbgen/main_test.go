package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
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
// very command wrote at the PARENT commit (615aa5e: `vbgen -rows 150
// -scheme rsa-merkle -keybits 512 -pagesize 1024`), when every digest was
// computed with math/big and one g per digest. Under a Merkle scheme the
// pages hold raw digests, so the audit recomputes each of them with the
// two-limb kernel and compares bytes, and the queries check that answers
// served from those pages verify against the root signature made back
// then — persisted state outlives the arithmetic that produced it.
//
// pages.db and key.pub are the bytes 615aa5e wrote. meta.bin is a
// wire.Snapshot encoding, so when the snapshot lost its accumulator
// block (the accumulator became a constant) the fixture lost exactly
// those 17 bytes; the test puts them back and checks that the result is
// the file 615aa5e wrote, by its SHA-256.
func TestOpensDatabaseWrittenByParentCommit(t *testing.T) {
	meta, err := os.ReadFile(filepath.Join("testdata", "parent-615aa5e", "meta.bin"))
	if err != nil {
		t.Fatal(err)
	}
	// u32 size 16, u64 exponent 15, u8 mode 0 (m = 2^k), empty modulus.
	accBlock, _ := hex.DecodeString("00000010" + "000000000000000f" + "00" + "00000000")
	at := 4 + int(binary.BigEndian.Uint32(meta)) // behind the schema blob
	written := append(append(append([]byte(nil), meta[:at]...), accBlock...), meta[at:]...)
	if sum := sha256.Sum256(written); hex.EncodeToString(sum[:]) != "f8b1d08ae5e7cc5a09d98e8ad738514e1413de4b39526b1607dbb02453b9576f" {
		t.Fatalf("meta.bin with the accumulator block put back hashes to %x, not to the file 615aa5e wrote", sum)
	}

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
