package vbtree

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
)

// scratchQueries are answers of different shapes — long and short D_S
// runs, rows with and without D_P, none at all — so that a traversal
// handed another's leftovers would write different bytes.
func scratchQueries() []Query {
	cust := func(t schema.Tuple) bool { return t.Values[1].S == "cust-003" }
	return []Query{
		{Lo: i64(40), Hi: i64(260), Project: []string{"id", "amount"}},
		{Lo: i64(123), Hi: i64(123)},
		{Lo: i64(5000), Hi: i64(6000)},
		{Lo: i64(10), Hi: i64(290), Filter: cust, Project: []string{"customer"}},
		{Hi: i64(7), AnchorRoot: true},
		{Lo: i64(290)},
	}
}

// TestWalkScratchIsSharedSafely: the scratch AppendAnswer recycles through
// walkScratchPool changes no answer, whichever traversal used it last and
// however many run at once.
func TestWalkScratchIsSharedSafely(t *testing.T) {
	ctx := context.Background()
	defer func() { walkScratchPool = sync.Pool{New: func() any { return new(walkScratch) }} }()
	for _, scheme := range []sig.Scheme{sig.SchemeRSAMerkle, sig.SchemeEd25519} {
		h := newSchemeHarness(t, 300, 1024, scheme)
		h.tree.mu.RLock()
		v, err := h.tree.viewLocked(sig.Signature(h.tree.rootU))
		h.tree.mu.RUnlock()
		if err != nil {
			t.Fatal(err)
		}
		queries := scratchQueries()
		want := make([][]byte, len(queries))
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
func TestWalkScratchRecyclesNoPageReference(t *testing.T) {
	h := newHarness(t, 300, 1024, false)
	h.tree.mu.RLock()
	v, err := h.tree.viewLocked(sig.Signature(h.tree.rootU))
	h.tree.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	var used []*walkScratch
	walkScratchPool = sync.Pool{New: func() any {
		sc := new(walkScratch)
		used = append(used, sc)
		return sc
	}}
	defer func() { walkScratchPool = sync.Pool{New: func() any { return new(walkScratch) }} }()
	for i, q := range scratchQueries() {
		// The walk takes back the records and entry digests of every node
		// with no result row under it after collecting them.
		if _, _, err := v.AppendAnswer(context.Background(), q, nil); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if len(used) == 0 {
		t.Fatal("AppendAnswer took no scratch from the pool")
	}
	for _, sc := range used {
		if cap(sc.recs) == 0 || cap(sc.matches) == 0 || cap(sc.offsets) == 0 {
			t.Errorf("scratch came back without its capacity: recs %d, matches %d, offsets %d", cap(sc.recs), cap(sc.matches), cap(sc.offsets))
		}
		if len(sc.recs) != 0 || len(sc.matches) != 0 || len(sc.offsets) != 0 || len(sc.sv.Offsets()) != 0 {
			t.Errorf("scratch came back in use: recs %d, matches %d, offsets %d", len(sc.recs), len(sc.matches), len(sc.offsets))
		}
		for i, r := range sc.recs[:cap(sc.recs)] {
			if r.groups != nil {
				t.Fatalf("pooled node record %d still points at a page", i)
			}
		}
		for d, digs := range sc.depthDigs {
			for i, dg := range digs[:cap(digs)] {
				if dg != nil {
					t.Fatalf("pooled entry digest %d at depth %d still points at a page", i, d)
				}
			}
		}
		for i, rec := range sc.matches[:cap(sc.matches)] {
			if rec != nil {
				t.Fatalf("pooled row slot %d still points at a page", i)
			}
		}
	}
}
