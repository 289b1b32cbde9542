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

// TestRootDigestsMatchParentCommit pins the root digest of a seeded
// 1,000-row table — after Build, after an InsertBatch, after a single
// Insert and after a DeleteRange. The root digest is a function of every
// attribute, column group, tuple and node digest below it and of the
// incremental repairs, so equality here is bit-identity of the whole
// tree. The roots are what the tree has committed since a node commits
// to its entries through an in-node tree of arity 3 (commitment version
// 8); each line quotes what the parent commit (2c6ee41), whose in-node
// tree had arity 8, printed.
func TestRootDigestsMatchParentCommit(t *testing.T) {
	for _, tc := range []struct {
		scheme sig.Scheme
		height int
		// root after Build, InsertBatch, Insert and DeleteRange
		roots [4]string
	}{
		{sig.SchemeRSAMerkle, 3, [4]string{
			"3c716708bcfe4f286313779c88ddb93a", // parent: 68f7fc0cca0874e8624fae793183c262
			"9ab5effa3008a0993ff095ab070ec6ef", // parent: a985e653e6fafe7fc45152bcbce70b68
			"c183a62be8129829d6053da7ac88c37a", // parent: d4770d451264bc38401926e0655f2d83
			"84b2bb1664d841dee5835f92744ce86d", // parent: 9b1805a4441934783d5bf948ecef8161
		}},
	} {
		t.Run(tc.scheme.String(), func(t *testing.T) { rootDigestsMatch(t, tc.scheme, tc.height, tc.roots) })
	}
}

func rootDigestsMatch(t *testing.T, scheme sig.Scheme, height int, roots [4]string) {
	k := schemeKey(t, scheme)
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
		u := tree.RootDigest()
		if got := hex.EncodeToString(u); got != want {
			t.Errorf("root digest after %s = %s, pinned %s", stage, got, want)
		}
	}
	if tree.Height() != height {
		t.Fatalf("height %d, want %d", tree.Height(), height)
	}
	check("Build", roots[0])

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
	check("InsertBatch", roots[1])

	if err := tree.Insert(batchRow(sch, 9999)); err != nil {
		t.Fatal(err)
	}
	check("Insert", roots[2])

	lo, hi := schema.Int64(100), schema.Int64(300)
	if n, err := tree.DeleteRange(&lo, &hi); err != nil || n != 201 {
		t.Fatalf("DeleteRange removed %d, %v; want 201 as at the parent commit", n, err)
	}
	check("DeleteRange", roots[3])

	if _, err := audit(tree); err != nil {
		t.Fatalf("audit after the update sequence: %v", err)
	}
}
