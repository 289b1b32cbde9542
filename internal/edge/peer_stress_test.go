package edge

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"edgeauth/internal/central"
	"edgeauth/internal/schema"
)

// TestPeerFanoutStress is the tentpole's dozens-of-edges-on-one-box
// check: a 2-tier topology (2 serving edges on the central, the rest
// fanned out behind them) converges after a batch commit with central
// egress payload bytes bounded by a small multiple of the single-edge
// baseline — the CDN effect — and every scatter-gather client query
// against the peer-fed edges verifies.
func TestPeerFanoutStress(t *testing.T) {
	edges := 24
	if testing.Short() {
		edges = 8
	}
	const tier1Count = 2
	ctx := context.Background()
	srv, centralAddr := startCentralOpts(t, 300, central.Options{PageSize: 1024, Shards: 2})

	commitBatch := func(lo int64) {
		t.Helper()
		tuples := make([]schema.Tuple, 0, 20)
		for i := int64(0); i < 20; i++ {
			tuples = append(tuples, freshRow(t, lo+i))
		}
		opErrs, err := srv.ApplyBatch("items", tuples)
		if err != nil {
			t.Fatal(err)
		}
		for _, oe := range opErrs {
			if oe != nil {
				t.Fatal(oe)
			}
		}
	}

	// Baseline: one edge pulling directly from the central. Its delta
	// egress for one batch commit is the unit the tier is judged in.
	base := New(centralAddr)
	if err := base.PullAll(ctx); err != nil {
		t.Fatal(err)
	}
	auditRows(t, base, "baseline edge, bootstrap", 300)
	commitBatch(1_000_000)
	preBase := srv.Stats().EgressDeltaBytes
	if st, err := base.Refresh(ctx, "items"); err != nil || st.Mode != "delta" {
		t.Fatalf("baseline refresh: %+v, %v", st, err)
	}
	auditRows(t, base, "baseline edge, round 1", 320)
	baseline := srv.Stats().EgressDeltaBytes - preBase
	if baseline == 0 {
		t.Fatal("baseline produced no delta egress")
	}
	base.Close()

	// Build the topology. Tier-1 serves peers and pulls central bulk;
	// tier-2 edges list both tier-1 addresses (alternating preference,
	// so load spreads) and fall back to the central.
	tier1 := make([]*Server, tier1Count)
	tier1Addrs := make([]string, tier1Count)
	for i := range tier1 {
		tier1[i] = NewWithOptions(centralAddr, Options{ServePeers: true})
		if err := tier1[i].PullAll(ctx); err != nil {
			t.Fatal(err)
		}
		auditRows(t, tier1[i], fmt.Sprintf("tier-1 edge %d, bootstrap", i), 320)
		tier1Addrs[i] = startEdge(t, tier1[i])
	}
	tier2 := make([]*Server, edges-tier1Count)
	var wg sync.WaitGroup
	errCh := make(chan error, len(tier2))
	for i := range tier2 {
		ups := []string{tier1Addrs[i%2], tier1Addrs[(i+1)%2]}
		eg := NewWithOptions(centralAddr, Options{Upstreams: ups})
		tier2[i] = eg
		t.Cleanup(func() { eg.Close() })
		wg.Add(1)
		go func(eg *Server) {
			defer wg.Done()
			// Bootstrap concurrently: snapshots stream from tier-1.
			errCh <- eg.PullAll(ctx)
		}(tier2[i])
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, eg := range tier2 {
		auditRows(t, eg, fmt.Sprintf("tier-2 edge %d, bootstrap", i), 320)
	}

	// The measured round: one batch commit, tier-1 refreshes from the
	// central, tier-2 fans out behind it.
	commitBatch(2_000_000)
	preDelta := srv.Stats().EgressDeltaBytes
	refreshAll := func(egs []*Server) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, len(egs))
		for _, eg := range egs {
			wg.Add(1)
			go func(eg *Server) {
				defer wg.Done()
				_, err := eg.Refresh(ctx, "items")
				errs <- err
			}(eg)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	refreshAll(tier1)
	refreshAll(tier2)
	egress := srv.Stats().EgressDeltaBytes - preDelta
	for i, eg := range tier1 {
		auditRows(t, eg, fmt.Sprintf("tier-1 edge %d, round 1", i), 340)
	}
	for i, eg := range tier2 {
		auditRows(t, eg, fmt.Sprintf("tier-2 edge %d, round 1", i), 340)
	}

	// The CDN bound: central bulk egress for the whole fleet stays
	// within 3× what ONE direct edge costs (tier-1 is two edges; the
	// rest ride the relay cache).
	if egress > 3*baseline {
		t.Fatalf("central delta egress %d bytes for %d edges, want <= 3x single-edge baseline (%d)", egress, edges, 3*baseline)
	}

	// Convergence: every edge reached the central's version.
	want, err := srv.Version("items")
	if err != nil {
		t.Fatal(err)
	}
	for i, eg := range append(append([]*Server{}, tier1...), tier2...) {
		if v, _ := eg.Version("items"); v != want {
			t.Fatalf("edge %d at v%d, central at v%d", i, v, want)
		}
	}

	// 100%% of scatter-gather client queries against peer-fed edges
	// verify, and every commit is visible.
	for i, eg := range tier2 {
		if n := verifiedCount(t, startEdge(t, eg), centralAddr, 1_000_000); n != 40 {
			t.Fatalf("tier-2 edge %d: verified rows = %d, want 40", i, n)
		}
	}

	// And the relays actually carried the fan-out: tier-1 served the
	// bulk the central did not.
	var served uint64
	for _, eg := range tier1 {
		served += eg.Stats().PeerPayloadsServed
	}
	if served == 0 {
		t.Fatal("tier-1 served no peer payloads; the fan-out went to the central")
	}
	t.Logf("fanout: %d edges, baseline %dB, tiered central egress %dB, tier-1 served %d payloads",
		edges, baseline, egress, served)
}
