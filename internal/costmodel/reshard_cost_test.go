package costmodel_test

import (
	"context"
	"testing"

	"edgeauth/internal/central"
	"edgeauth/internal/costmodel"
	"edgeauth/internal/sig"
	"edgeauth/internal/workload"
)

// reshardObs is one transition's observed stats deltas.
type reshardObs struct {
	resigns, signs, pages uint64
	tailReplayed          uint64
	buildMs               float64
}

// observedTransitions runs a median split of shard 0 followed by a merge
// of its children on a live central server (ed25519, so SignOps counts
// signatures 1:1) and returns each transition's stats deltas.
func observedTransitions(t *testing.T, rows int) (split, merge reshardObs) {
	t.Helper()
	key, err := sig.Generate(sig.SchemeEd25519, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := central.NewServerWithKey(central.Options{PageSize: 4096, Shards: 2}, key)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	spec := workload.DefaultSpec(rows)
	sch, err := spec.Schema()
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := spec.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddTable(sch, tuples); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s0 := srv.Stats()
	if _, err := srv.SplitShard(ctx, sch.Table, 0, nil); err != nil {
		t.Fatalf("split: %v", err)
	}
	s1 := srv.Stats()
	if _, err := srv.MergeShards(ctx, sch.Table, 0); err != nil {
		t.Fatalf("merge: %v", err)
	}
	s2 := srv.Stats()
	split = reshardObs{
		resigns:      s1.ReshardResigns - s0.ReshardResigns,
		signs:        s1.SignOps - s0.SignOps,
		pages:        s1.ReshardPagesMoved - s0.ReshardPagesMoved,
		tailReplayed: s1.ReshardTailReplayed - s0.ReshardTailReplayed,
		buildMs:      s1.ReshardBuildMs - s0.ReshardBuildMs,
	}
	merge = reshardObs{
		resigns:      s2.ReshardResigns - s1.ReshardResigns,
		signs:        s2.SignOps - s1.SignOps,
		pages:        s2.ReshardPagesMoved - s1.ReshardPagesMoved,
		tailReplayed: s2.ReshardTailReplayed - s1.ReshardTailReplayed,
		buildMs:      s2.ReshardBuildMs - s1.ReshardBuildMs,
	}
	return split, merge
}

// TestReshardCostTiesToObservedStats pins the transition cost formula
// against a live server: signature counts must match exactly (they are
// the minimal-resigning contract), and the modeled page floor must sit
// below the observed page writes by no more than the slotted-page
// overhead factor, scaling linearly with the carved tuple count.
func TestReshardCostTiesToObservedStats(t *testing.T) {
	const rows = 2000 // Default() workload shape: 10 attrs × 20 B on 4 KB pages
	obsSplit, obsMerge := observedTransitions(t, rows)

	p := costmodel.Default()
	p.NR = rows
	// Shard 0 holds rows/2 tuples; the median split carves rows/4 each
	// side, and the merge rebuilds their union.
	ms := p.TransitionCost(rows/4, rows/4)
	mm := p.TransitionCost(rows / 2)

	if uint64(ms.RootsResigned) != obsSplit.resigns || uint64(ms.SignOps) != obsSplit.signs {
		t.Errorf("split signatures: model %d roots / %d signs, observed %d / %d",
			ms.RootsResigned, ms.SignOps, obsSplit.resigns, obsSplit.signs)
	}
	if uint64(mm.RootsResigned) != obsMerge.resigns || uint64(mm.SignOps) != obsMerge.signs {
		t.Errorf("merge signatures: model %d roots / %d signs, observed %d / %d",
			mm.RootsResigned, mm.SignOps, obsMerge.resigns, obsMerge.signs)
	}

	checkPages := func(name string, model int, observed uint64) {
		t.Helper()
		if observed < uint64(model) {
			t.Errorf("%s: observed %d pages below the modeled packed floor %d", name, observed, model)
		}
		if observed > uint64(4*model) {
			t.Errorf("%s: observed %d pages more than 4x the modeled floor %d", name, observed, model)
		}
	}
	checkPages("split", ms.PagesMoved, obsSplit.pages)
	checkPages("merge", mm.PagesMoved, obsMerge.pages)

	// Incremental transitions on a quiescent table: the delta tail is
	// empty, so the observed in-lock replay is zero and the modeled
	// barrier collapses to its constant signature term — while the
	// O(shard) build work shows up as unlocked build wall time.
	if obsSplit.tailReplayed != 0 || obsMerge.tailReplayed != 0 {
		t.Errorf("quiescent transitions replayed a tail: split %d, merge %d, want 0/0",
			obsSplit.tailReplayed, obsMerge.tailReplayed)
	}
	if got, want := p.BarrierComp(ms.RootsResigned, int(obsSplit.tailReplayed)), p.BarrierComp(ms.RootsResigned, 0); got != want {
		t.Errorf("observed barrier comp %v, want the constant term %v", got, want)
	}
	if obsSplit.buildMs <= 0 || obsMerge.buildMs <= 0 {
		t.Errorf("transitions recorded no unlocked build time: split %.3fms, merge %.3fms",
			obsSplit.buildMs, obsMerge.buildMs)
	}

	// Linearity: doubling the table doubles the carved tuple count, and
	// observed pages must track the model's ratio.
	obsSplit2, _ := observedTransitions(t, 2*rows)
	ms2 := p.TransitionCost(rows/2, rows/2)
	obsRatio := float64(obsSplit2.pages) / float64(obsSplit.pages)
	modelRatio := float64(ms2.PagesMoved) / float64(ms.PagesMoved)
	if r := obsRatio / modelRatio; r < 0.75 || r > 1.25 {
		t.Errorf("page scaling: observed ratio %.2f vs model ratio %.2f (off by %.2fx)",
			obsRatio, modelRatio, r)
	}
}

// TestReshardCostShape pins the formula's intrinsic properties, no
// server involved.
func TestReshardCostShape(t *testing.T) {
	p := costmodel.Default()
	if c := p.TransitionCost(0, 0); c.PagesMoved != 0 || c.Comp != 0 {
		t.Errorf("empty split costs %+v, want zero pages and comp", c)
	}
	s := p.TransitionCost(500, 500)
	m := p.TransitionCost(1000)
	if s.RootsResigned != 2 || s.SignOps != 3 || m.RootsResigned != 1 || m.SignOps != 2 {
		t.Errorf("signature constants: split %+v, merge %+v", s, m)
	}
	// A split writes the same tuple bytes as the inverse merge plus one
	// extra store header, so its page count is >= the merge's.
	if s.PagesMoved < m.PagesMoved {
		t.Errorf("split pages %d below merge pages %d for the same tuples", s.PagesMoved, m.PagesMoved)
	}
	// Both components grow with the carved tuple count.
	s2 := p.TransitionCost(1000, 1000)
	if s2.PagesMoved <= s.PagesMoved || s2.Comp <= s.Comp {
		t.Errorf("cost did not grow with carved tuples: %+v -> %+v", s, s2)
	}
	// The signature component does NOT grow — that is the whole point of
	// the minimal re-signing design.
	if s2.RootsResigned != s.RootsResigned || s2.SignOps != s.SignOps {
		t.Errorf("signature count grew with shard size: %+v -> %+v", s, s2)
	}
	// The barrier stall model: the transition's own signatures at an
	// empty tail (a split's three, a merge's two), linear in the tail
	// thereafter, and independent of the shard size — the build term
	// never enters it.
	for _, c := range []costmodel.ReshardCost{s, m} {
		if got, want := p.BarrierComp(c.RootsResigned, 0), float64(c.SignOps)*p.CostS(); got != want {
			t.Errorf("%d-child empty-tail barrier comp %v, want the %d-signature constant %v", c.RootsResigned, got, c.SignOps, want)
		}
	}
	b1 := p.BarrierComp(2, 100) - p.BarrierComp(2, 0)
	b2 := p.BarrierComp(2, 200) - p.BarrierComp(2, 0)
	if b1 <= 0 || b2 != 2*b1 {
		t.Errorf("barrier comp not linear in the tail: +100 -> %v, +200 -> %v", b1, b2)
	}
}
