package vbtree

import (
	"encoding/hex"
	"testing"

	"edgeauth/internal/digest"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
	"edgeauth/internal/workload"
)

// TestRootDigestsMatchParentCommit pins the Merkle root digest of a
// seeded 1,000-row table — after Build, after an InsertBatch, after a
// single Insert and after a DeleteRange — to the hex values the PARENT
// commit (615aa5e, math/big arithmetic, one g per digest) printed for the
// same steps. The root digest is a function of every attribute, tuple and
// node digest below it and of the incremental AccFrom/Remove/Add repairs,
// so equality here is bit-identity of the whole tree with trees already
// persisted and signed.
func TestRootDigestsMatchParentCommit(t *testing.T) {
	k, err := batchSigner(t).WithScheme(sig.SchemeRSAMerkle)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.DefaultSpec(1000)
	spec.Seed = 14
	sch, err := spec.Schema()
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := spec.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	mem, err := storage.NewMemPager(1024)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := storage.NewBufferPool(mem, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := storage.NewHeapFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(Config{
		Pool: bp, Heap: heap, Schema: sch, Acc: digest.MustNew(digest.DefaultParams()),
		Signer: k, Pub: k.Public(), BuildParallelism: 4,
	}, tuples, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage, want string) {
		t.Helper()
		u, err := tree.RootDigest()
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(u); got != want {
			t.Errorf("root digest after %s = %s, parent commit produced %s", stage, got, want)
		}
	}
	if tree.Height() != 3 {
		t.Fatalf("height %d, want 3 as at the parent commit", tree.Height())
	}
	check("Build", "a93a8d22d03998dba2771b0cd31dbd6b")

	var rows []schema.Tuple
	for i := int64(0); i < 40; i++ {
		rows = append(rows, batchRow(sch, 5000+i*3))
	}
	_, errs, err := tree.InsertBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range errs {
		if e != nil {
			t.Fatal(e)
		}
	}
	check("InsertBatch", "93b38d50896067210148dd3fb84579ab")

	if err := tree.Insert(batchRow(sch, 9999)); err != nil {
		t.Fatal(err)
	}
	check("Insert", "bdd3cef2176b81b55c4abf142c4d6de5")

	lo, hi := schema.Int64(100), schema.Int64(300)
	if n, err := tree.DeleteRange(&lo, &hi); err != nil || n != 201 {
		t.Fatalf("DeleteRange removed %d, %v; want 201 as at the parent commit", n, err)
	}
	check("DeleteRange", "0864f71b37a9fa973fbd20b058e9fead")

	if _, err := tree.Audit(); err != nil {
		t.Fatalf("audit after the update sequence: %v", err)
	}
}
