package vbtree

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"edgeauth/internal/digest"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
	"edgeauth/internal/workload"
)

// scratchQueries are answers of different shapes — long and short D_S
// runs, rows with and without D_P, none at all — so that a traversal
// handed another's leftovers would write different bytes.
func scratchQueries() []Query {
	return []Query{
		{Lo: i64(40), Hi: i64(260), Project: []string{"id", "amount"}},
		{Lo: i64(123), Hi: i64(123)},
		{Lo: i64(5000), Hi: i64(6000)},
		{Lo: i64(10), Hi: i64(290), Project: []string{"customer"}},
		{Hi: i64(7), AnchorRoot: true},
		{Lo: i64(290)},
	}
}

// liveView returns a view of the tree's live pages (Tree.Read), for a test
// that writes nothing to the tree while it reads.
func liveView(t testing.TB, tree *Tree) *View {
	t.Helper()
	var v *View
	if err := tree.Read(func(rv *View) error { v = rv; return nil }); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestWalkScratchIsSharedSafely: the scratch AppendAnswer recycles through
// walkScratchPool changes no answer, whichever traversal used it last and
// however many run at once.
func TestWalkScratchIsSharedSafely(t *testing.T) {
	ctx := context.Background()
	defer func() { walkScratchPool = sync.Pool{New: func() any { return new(walkScratch) }} }()
	for _, scheme := range []sig.Scheme{sig.SchemeRSAMerkle, sig.SchemeEd25519} {
		h := newSchemeHarness(t, 300, 1024, scheme)
		v := liveView(t, h.tree)
		queries := scratchQueries()
		want := make([][]byte, len(queries))
		var err error
		for i, q := range queries {
			// A fresh scratch for every reference answer.
			walkScratchPool = sync.Pool{New: func() any { return new(walkScratch) }}
			if want[i], _, err = v.AppendAnswer(ctx, q, nil); err != nil {
				t.Fatalf("%v query %d: %v", scheme, i, err)
			}
		}
		var wg sync.WaitGroup
		errs := make(chan error, 4) // one per goroutine
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for round := 0; round < 20; round++ {
					i := (g + round*(g+1)) % len(queries)
					got, _, err := v.AppendAnswer(ctx, queries[i], nil)
					if err != nil || !bytes.Equal(got, want[i]) {
						errs <- fmt.Errorf("%v query %d on a recycled scratch: err=%v, same bytes=%v", scheme, i, err, bytes.Equal(got, want[i]))
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}

// TestWalkScratchRecyclesNoPageReference: what goes back to the pool
// points at no page, in use or cut off, so a pooled scratch cannot keep a
// snapshot's pages reachable after the pin that covered the traversal is
// released — nor hand the next traversal a view of pages that have since
// been recycled.
//
// The test owns the recycling: every query takes the same scratch, from
// a fresh pool whose New hands it out, so each check sees what all the
// queries before it left behind. sync.Pool would not do: under the race
// detector it drops a share of its Puts on purpose, and a query that
// matches no row could then run on a fresh scratch that never grew.
func TestWalkScratchRecyclesNoPageReference(t *testing.T) {
	h := newHarness(t, 300, 1024)
	v := liveView(t, h.tree)
	sc := new(walkScratch)
	defer func() { walkScratchPool = sync.Pool{New: func() any { return new(walkScratch) }} }()
	for i, q := range scratchQueries() {
		taken := false
		walkScratchPool = sync.Pool{New: func() any {
			taken = true
			return sc
		}}
		// The walk takes back the records and entry digests of every node
		// with no result row under it after collecting them.
		if _, _, err := v.AppendAnswer(context.Background(), q, nil); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !taken {
			t.Fatalf("query %d: AppendAnswer took no scratch from the pool", i)
		}
		// The first query matches rows, so the scratch has grown by now.
		if cap(sc.recs) == 0 || cap(sc.matches) == 0 || cap(sc.offsets) == 0 {
			t.Errorf("query %d: scratch came back without its capacity: recs %d, matches %d, offsets %d", i, cap(sc.recs), cap(sc.matches), cap(sc.offsets))
		}
		if len(sc.recs) != 0 || len(sc.matches) != 0 || len(sc.offsets) != 0 || len(sc.sv.Offsets()) != 0 {
			t.Errorf("query %d: scratch came back in use: recs %d, matches %d, offsets %d", i, len(sc.recs), len(sc.matches), len(sc.offsets))
		}
		for j, r := range sc.recs[:cap(sc.recs)] {
			if r.groups != nil {
				t.Fatalf("query %d: pooled node record %d still points at a page", i, j)
			}
		}
		for d, digs := range sc.depthDigs {
			for j, dg := range digs[:cap(digs)] {
				if dg != nil {
					t.Fatalf("query %d: pooled entry digest %d at depth %d still points at a page", i, j, d)
				}
			}
		}
		for j, rec := range sc.matches[:cap(sc.matches)] {
			if rec != nil {
				t.Fatalf("query %d: pooled row slot %d still points at a page", i, j)
			}
		}
	}
}

// BenchmarkAnswerRange256 is the edge's side of the read.range shape: a
// 256-row answer of 3 of 10 columns from 4 KB pages, built into a
// reused buffer. It reports the VO's bytes and the hashes the edge
// spends on an answer beside the time — none: every digest of the proof,
// row or node, is copied from a page (verify.BenchmarkVerifyRange256 is
// the client's side).
func BenchmarkAnswerRange256(b *testing.B) {
	var c digest.Counters
	k := schemeKey(b, sig.SchemeEd25519)
	spec := workload.DefaultSpec(4096)
	sch, err := spec.Schema()
	if err != nil {
		b.Fatal(err)
	}
	tuples, err := spec.Tuples()
	if err != nil {
		b.Fatal(err)
	}
	mem, err := storage.NewMemPager(4096)
	if err != nil {
		b.Fatal(err)
	}
	bp, err := storage.NewBufferPool(mem, 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	heap, err := storage.NewHeapFile(bp)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := Build(Config{
		Pool: bp, Heap: heap, Schema: sch, Acc: digest.MustNew(digest.Params{Counters: &c}),
		Pub: k.Public(),
	}, tuples, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	v := liveView(b, tree).Anchored(k.MustSign(tree.RootDigest()))
	q := Query{Lo: i64(1000), Hi: i64(1255), Project: workload.ProjectFirstN(sch, 3)}
	ctx := context.Background()
	buf, voBytes, err := v.AppendAnswer(ctx, q, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	before := c.Snapshot()
	for i := 0; i < b.N; i++ {
		if buf, _, err = v.AppendAnswer(ctx, q, buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(voBytes), "vo_bytes/op")
	b.ReportMetric(float64(c.Snapshot().Sub(before).HashOps)/float64(b.N), "hash_ops/op")
}
