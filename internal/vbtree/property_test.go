package vbtree

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"edgeauth/internal/costmodel"
	"edgeauth/internal/digest"
	"edgeauth/internal/schema"
	"edgeauth/internal/storage"
	"edgeauth/internal/verify"
)

// TestPropertyRandomOpsStayVerifiable drives random insert/delete/query
// sequences and checks the system's core invariant throughout: every
// query result verifies, and the final tree passes a full digest audit.
func TestPropertyRandomOpsStayVerifiable(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is slow")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := newHarness(t, 60, 1024)
		live := make(map[int]bool)
		for i := 0; i < 60; i++ {
			live[i] = true
		}
		for op := 0; op < 40; op++ {
			switch rng.Intn(4) {
			case 0: // insert a fresh key
				k := 100 + rng.Intn(400)
				if live[k] {
					continue
				}
				if err := h.tree.Insert(mkTuple(k)); err != nil {
					t.Logf("seed %d: insert(%d): %v", seed, k, err)
					return false
				}
				live[k] = true
			case 1: // delete one existing key
				for k := range live {
					if err := h.tree.Delete(schema.Int64(int64(k))); err != nil {
						t.Logf("seed %d: delete(%d): %v", seed, k, err)
						return false
					}
					delete(live, k)
					break
				}
			case 2: // range delete
				lo := rng.Intn(500)
				hi := lo + rng.Intn(30)
				n, err := h.tree.DeleteRange(i64(lo), i64(hi))
				if err != nil {
					t.Logf("seed %d: deleteRange(%d,%d): %v", seed, lo, hi, err)
					return false
				}
				removed := 0
				for k := range live {
					if k >= lo && k <= hi {
						delete(live, k)
						removed++
					}
				}
				if n != removed {
					t.Logf("seed %d: deleteRange removed %d, model says %d", seed, n, removed)
					return false
				}
			case 3: // verified query over a random range
				lo := rng.Intn(500)
				hi := lo + rng.Intn(100)
				rs, w, err := runQuery(h.tree, h.key, Query{Lo: i64(lo), Hi: i64(hi)})
				if err != nil {
					t.Logf("seed %d: query: %v", seed, err)
					return false
				}
				want := 0
				for k := range live {
					if k >= lo && k <= hi {
						want++
					}
				}
				if len(rs.Tuples) != want {
					t.Logf("seed %d: query [%d,%d] returned %d, model says %d",
						seed, lo, hi, len(rs.Tuples), want)
					return false
				}
				if err := h.ver.Verify(rs, w); err != nil {
					t.Logf("seed %d: verification failed: %v", seed, err)
					return false
				}
			}
		}
		// Final invariant: full audit passes and counts match the model.
		n, err := audit(h.tree)
		if err != nil {
			t.Logf("seed %d: audit: %v", seed, err)
			return false
		}
		if n != len(live) {
			t.Logf("seed %d: audit saw %d tuples, model says %d", seed, n, len(live))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyProjectionSubsetsVerify checks that every projection subset
// of a query verifies, not just the full row.
func TestPropertyProjectionSubsetsVerify(t *testing.T) {
	h := newHarness(t, 120, 1024)
	cols := []string{"id", "customer", "amount", "notes"}
	// All non-empty subsets of the 4 columns.
	for mask := 1; mask < 16; mask++ {
		var project []string
		for i, c := range cols {
			if mask&(1<<i) != 0 {
				project = append(project, c)
			}
		}
		rs, w, err := runQuery(h.tree, h.key, Query{Lo: i64(30), Hi: i64(60), Project: project})
		if err != nil {
			t.Fatalf("projection %v: %v", project, err)
		}
		if err := h.ver.Verify(rs, w); err != nil {
			t.Fatalf("projection %v failed verification: %v", project, err)
		}
		// Three non-key columns are three leaves under the tuple hash: a
		// row ships one digest per non-key column it leaves out, and none
		// for the key column.
		nonKey := len(project)
		if mask&1 != 0 {
			nonKey--
		}
		wantDP := 31 * (len(cols) - 1 - nonKey)
		if w.NumDP() != wantDP {
			t.Fatalf("projection %v: DP=%d, want %d", project, w.NumDP(), wantDP)
		}
	}
}

// TestPropertyQueryBoundaryAlignment sweeps range boundaries across leaf
// boundaries (the off-by-one hotspot of enveloping-subtree computation).
func TestPropertyQueryBoundaryAlignment(t *testing.T) {
	h := newHarness(t, 200, 1024)
	for lo := 0; lo < 40; lo++ {
		for width := 0; width < 25; width += 3 {
			rs, w, err := runQuery(h.tree, h.key, Query{Lo: i64(lo), Hi: i64(lo + width)})
			if err != nil {
				t.Fatalf("[%d,%d]: %v", lo, lo+width, err)
			}
			if len(rs.Tuples) != width+1 {
				t.Fatalf("[%d,%d]: got %d tuples", lo, lo+width, len(rs.Tuples))
			}
			if err := h.ver.Verify(rs, w); err != nil {
				t.Fatalf("[%d,%d]: verification failed: %v", lo, lo+width, err)
			}
		}
	}
}

// TestConcurrentQueriesDuringUpdates runs verified queries through
// Tree.Read beside a writer inserting and deleting, with no page locks:
// Tree.mu alone orders them (readers under its read lock, the writer
// under its write lock), and -race checks that it is enough. A full
// audit follows.
func TestConcurrentQueriesDuringUpdates(t *testing.T) {
	h := newHarness(t, 300, 1024)
	var wg sync.WaitGroup
	errs := make(chan error, 32)

	// Readers: verified queries over disjoint regions.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				lo, hi := g*80, g*80+40
				rs, w, err := runQuery(h.tree, h.key, Query{Lo: i64(lo), Hi: i64(hi)})
				if err != nil {
					errs <- err
					return
				}
				if err := h.ver.Verify(rs, w); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	// Writer: inserts into a high key range plus deletes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			if err := h.tree.Insert(mkTuple(1000 + i)); err != nil {
				errs <- err
				return
			}
		}
		if _, err := h.tree.DeleteRange(i64(250), i64(260)); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, err := audit(h.tree); err != nil {
		t.Fatalf("audit after concurrent run: %v", err)
	}
}

// TestKeyColumnAnywhereVerifies: the column tree's leaves are the non-key
// columns in schema order wherever the key column sits, and the edge and
// the verifier agree on them — every projection of a seven-column table
// verifies with the key first, in the middle and last, and ships the
// column proof the model counts.
func TestKeyColumnAnywhereVerifies(t *testing.T) {
	const nc = 7
	for _, key := range []int{0, 3, nc - 1} {
		sch := &schema.Schema{DB: "db", Table: "wide", Key: key}
		for ci := 0; ci < nc; ci++ {
			typ := schema.TypeString
			if ci == key {
				typ = schema.TypeInt64
			}
			sch.Columns = append(sch.Columns, schema.Column{Name: fmt.Sprintf("c%d", ci), Type: typ})
		}
		var tuples []schema.Tuple
		for i := 0; i < 60; i++ {
			vals := make([]schema.Datum, nc)
			for ci := range vals {
				vals[ci] = schema.Str(fmt.Sprintf("r%d-c%d", i, ci))
			}
			vals[key] = schema.Int64(int64(i))
			tuples = append(tuples, schema.Tuple{Values: vals})
		}
		mem, _ := storage.NewMemPager(1024)
		bp, _ := storage.NewBufferPool(mem, 1024)
		heap, _ := storage.NewHeapFile(bp)
		k, acc := signer(t), digest.MustNew(digest.DefaultParams())
		tree, err := Build(Config{Pool: bp, Heap: heap, Schema: sch, Acc: acc, Pub: k.Public()}, tuples, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		ver := &verify.Verifier{Keys: trusted(k.Public()), Acc: acc, Schema: sch}
		for mask := 1; mask < 1<<nc; mask++ {
			var project []string
			var cols []int
			for ci := 0; ci < nc; ci++ {
				if mask&(1<<ci) != 0 {
					project = append(project, sch.Columns[ci].Name)
					cols = append(cols, ci)
				}
			}
			rs, w, err := runQuery(tree, k, Query{Lo: i64(10), Hi: i64(20), Project: project})
			if err != nil {
				t.Fatal(err)
			}
			if err := ver.Verify(rs, w); err != nil {
				t.Fatalf("key %d, projection %v: %v", key, project, err)
			}
			if got, want := w.NumDP(), costmodel.OrderedDPCount(len(rs.Tuples), costmodel.ProjectionOf(nc, key, cols)); got != want {
				t.Fatalf("key %d, projection %v: %d D_P digests, the model counts %d", key, project, got, want)
			}
		}
	}
}
