package costmodel_test

import (
	"context"
	"testing"

	"edgeauth/internal/central"
	"edgeauth/internal/costmodel"
	"edgeauth/internal/sig"
	"edgeauth/internal/workload"
)

// reshardObs is one transition's observed stats deltas: signs is what
// the transition itself signed, pullSigns what the first pull of the new
// generation signed after it.
type reshardObs struct {
	resigns, signs, pages uint64
	pullSigns             uint64
	tailReplayed          uint64
	buildMs               float64
}

// observedTransitions runs a median split of shard 0 followed by a merge
// of its children on a live central server (ed25519, so SignOps counts
// signatures 1:1), each followed by the pull a replica makes of the new
// generation — the signed map, then a snapshot of every shard it has not
// held — and returns each transition's stats deltas.
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
	held := map[uint64]bool{}
	pull := func() uint64 {
		t.Helper()
		before := srv.Stats().SignOps
		sm, err := srv.SignedShardMap(sch.Table)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range sm.Map.Shards {
			if held[sh.ID] {
				continue
			}
			if _, err := srv.ShardSnapshotByID(sch.Table, sh.ID); err != nil {
				t.Fatal(err)
			}
			held[sh.ID] = true
		}
		return srv.Stats().SignOps - before
	}
	pull()
	observe := func(name string, transition func() error) reshardObs {
		t.Helper()
		s0 := srv.Stats()
		if err := transition(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s1 := srv.Stats()
		return reshardObs{
			resigns:      s1.ReshardResigns - s0.ReshardResigns,
			signs:        s1.SignOps - s0.SignOps,
			pages:        s1.ReshardPagesMoved - s0.ReshardPagesMoved,
			pullSigns:    pull(),
			tailReplayed: s1.ReshardTailReplayed - s0.ReshardTailReplayed,
			buildMs:      s1.ReshardBuildMs - s0.ReshardBuildMs,
		}
	}
	split = observe("split", func() error {
		_, err := srv.SplitShard(ctx, sch.Table, 0, nil)
		return err
	})
	merge = observe("merge", func() error {
		_, err := srv.MergeShards(ctx, sch.Table, 0)
		return err
	})
	return split, merge
}

// TestReshardCostTiesToObservedStats pins the transition cost formula
// against a live server: signature counts must match exactly (they are
// the minimal-resigning contract: nothing at the barrier, the map and
// one root per child on the first pull), and the modeled page floor must sit
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

	for _, c := range []struct {
		name  string
		model costmodel.ReshardCost
		obs   reshardObs
	}{{"split", ms, obsSplit}, {"merge", mm, obsMerge}} {
		pull := costmodel.PullSignOps(c.model.RootsResigned, 0)
		if uint64(c.model.RootsResigned) != c.obs.resigns || c.obs.signs != 0 || uint64(pull) != c.obs.pullSigns {
			t.Errorf("%s signatures: model %d roots, 0 at the barrier, %d on the first pull; observed %d / %d / %d",
				c.name, c.model.RootsResigned, pull, c.obs.resigns, c.obs.signs, c.obs.pullSigns)
		}
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
	// barrier collapses to nothing — while the O(shard) build work shows
	// up as unlocked build wall time.
	if obsSplit.tailReplayed != 0 || obsMerge.tailReplayed != 0 {
		t.Errorf("quiescent transitions replayed a tail: split %d, merge %d, want 0/0",
			obsSplit.tailReplayed, obsMerge.tailReplayed)
	}
	if got := p.BarrierComp(int(obsSplit.tailReplayed)); got != 0 {
		t.Errorf("observed barrier comp %v, want 0", got)
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
	if s.RootsResigned != 2 || m.RootsResigned != 1 {
		t.Errorf("new roots: split %+v, merge %+v", s, m)
	}
	// The first pull of the new generation signs the map and each new
	// root.
	for _, tc := range []struct {
		c    costmodel.ReshardCost
		want int
	}{{s, 3}, {m, 2}} {
		if got := costmodel.PullSignOps(tc.c.RootsResigned, 0); got != tc.want {
			t.Errorf("first pull after a %d-child transition signs %d, want %d", tc.c.RootsResigned, got, tc.want)
		}
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
	if s2.RootsResigned != s.RootsResigned {
		t.Errorf("new-root count grew with shard size: %+v -> %+v", s, s2)
	}
	// The barrier stall model: nothing at an empty tail — no signature is
	// made inside the barrier — linear in the tail thereafter, and
	// independent of the shard size — the build term never enters it.
	if got := p.BarrierComp(0); got != 0 {
		t.Errorf("empty-tail barrier comp %v, want 0", got)
	}
	b1 := p.BarrierComp(100)
	b2 := p.BarrierComp(200)
	if b1 <= 0 || b2 != 2*b1 {
		t.Errorf("barrier comp not linear in the tail: +100 -> %v, +200 -> %v", b1, b2)
	}
}
