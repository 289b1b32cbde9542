package central

import (
	"sync/atomic"

	"edgeauth/internal/digest"
)

// serverCounters aggregates the central server's observable activity.
// Everything is atomic: the counters are bumped on hot paths and read by
// the Stats snapshot (exposed over expvar by centrald's -debug-addr).
type serverCounters struct {
	snapshotsServed atomic.Uint64
	deltasServed    atomic.Uint64
	mapsServed      atomic.Uint64
	// Egress payload bytes by replication message kind — the central's
	// side of the peer-tier CDN ledger: a working peer tier shows map
	// bytes scaling with the edge count while snapshot/delta bytes scale
	// with the (much smaller) tier-1 peer count.
	snapshotBytes  atomic.Uint64
	deltaBytes     atomic.Uint64
	mapBytes       atomic.Uint64
	insertsApplied atomic.Uint64
	deletesApplied atomic.Uint64
	batchRounds    atomic.Uint64
	batchOps       atomic.Uint64
	maxRound       atomic.Uint64
	// commits counts committed shard updates — the denominator of the
	// signatures-per-commit ratio.
	commits atomic.Uint64

	// Online resharding: transitions committed and the per-transition
	// work they paid (the costmodel's observables — new shard roots and
	// pages copied into the carved-out trees).
	splits            atomic.Uint64
	merges            atomic.Uint64
	reshardResigns    atomic.Uint64
	reshardPagesMoved atomic.Uint64

	// Incremental transitions: tail tuples replayed into the children
	// inside the partition lock (the in-lock stall is O of this number),
	// tail tuples pre-replayed outside the lock by catch-up rounds,
	// catch-up rounds run, and wall time split between the unlocked
	// build phase and the locked barrier.
	reshardTailReplayed    atomic.Uint64
	reshardTailPrereplayed atomic.Uint64
	reshardCatchupRounds   atomic.Uint64
	reshardBuildNanos      atomic.Uint64
	reshardBarrierNanos    atomic.Uint64

	// signOps receives the signing key's op count via digest.Counters
	// (installed by NewServerWithKey).
	signOps digest.Counters
}

// observeRound tracks the largest group-commit round seen.
func (c *serverCounters) observeRound(n int) {
	for {
		cur := c.maxRound.Load()
		if uint64(n) <= cur || c.maxRound.CompareAndSwap(cur, uint64(n)) {
			return
		}
	}
}

// Stats is a point-in-time snapshot of the server's counters. The JSON
// field names are the expvar keys.
type Stats struct {
	SnapshotsServed uint64 `json:"snapshots_served"`
	DeltasServed    uint64 `json:"deltas_served"`
	ShardMapsServed uint64 `json:"shard_maps_served"`
	// Egress*Bytes are encoded replication payload bytes the central
	// served, by kind (the peer-fanout benchmark's central-egress metric).
	EgressSnapshotBytes uint64 `json:"egress_snapshot_bytes"`
	EgressDeltaBytes    uint64 `json:"egress_delta_bytes"`
	EgressMapBytes      uint64 `json:"egress_map_bytes"`
	InsertsApplied      uint64 `json:"inserts_applied"`
	DeletesApplied      uint64 `json:"deletes_applied"`
	// Scheme names the signing key's signature scheme; SignOps and
	// RecoverOps below are this scheme's totals.
	Scheme string `json:"scheme"`
	// SignOps counts signature generations. A commit makes none; they
	// are made when a replica is first shipped what a signature covers
	// (each map version, each shard root) or is shipped a delta body
	// (signed for each puller).
	SignOps uint64 `json:"sign_ops"`
	// RecoverOps counts signature recoveries/verifications performed with
	// the key (audits, self-checks).
	RecoverOps uint64 `json:"recover_ops"`
	// Commits counts committed shard updates; SigsPerCommit =
	// SignOps/Commits is what the commits and their shipping cost
	// together, per commit: the shipped roots, maps and delta bodies
	// alone, so a commit no replica pulls before the next one costs
	// nothing.
	Commits       uint64  `json:"commits"`
	SigsPerCommit float64 `json:"signatures_per_commit"`
	// BatchRounds / BatchOps describe the group-commit front door:
	// BatchOps/BatchRounds is the mean coalesced round size, MaxRound
	// the largest round committed.
	BatchRounds uint64 `json:"group_commit_rounds"`
	BatchOps    uint64 `json:"group_commit_ops"`
	MaxRound    uint64 `json:"group_commit_max_round"`
	// Online resharding: committed partition transitions, the new shard
	// roots they made (a split exactly the two carved roots, never the
	// whole table; each is signed when a replica is first shipped it,
	// not by the transition), and the pages copied
	// building the new shards' trees.
	Splits            uint64 `json:"reshard_splits"`
	Merges            uint64 `json:"reshard_merges"`
	ReshardResigns    uint64 `json:"reshard_root_resigns"`
	ReshardPagesMoved uint64 `json:"reshard_pages_moved"`
	// ReshardTailReplayed counts tail tuples replayed into transition
	// children inside the partition lock — the barrier stall is O(this),
	// never O(shard pages). ReshardTailPrereplayed counts tuples the
	// catch-up rounds replayed outside the lock instead, over
	// ReshardCatchupRounds rounds.
	ReshardTailReplayed    uint64 `json:"reshard_tail_replayed"`
	ReshardTailPrereplayed uint64 `json:"reshard_tail_prereplayed"`
	ReshardCatchupRounds   uint64 `json:"reshard_catchup_rounds"`
	// ReshardBuildMs is wall time spent streaming child builds off pinned
	// snapshots (no lock held, writers keep committing);
	// ReshardBarrierStallMs is wall time inside the partition write lock.
	ReshardBuildMs        float64 `json:"reshard_build_ms"`
	ReshardBarrierStallMs float64 `json:"reshard_barrier_stall_ms"`
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	signOps := uint64(s.stats.signOps.SignOps.Load())
	commits := s.stats.commits.Load()
	var perCommit float64
	if commits > 0 {
		perCommit = float64(signOps) / float64(commits)
	}
	return Stats{
		SnapshotsServed:     s.stats.snapshotsServed.Load(),
		DeltasServed:        s.stats.deltasServed.Load(),
		ShardMapsServed:     s.stats.mapsServed.Load(),
		EgressSnapshotBytes: s.stats.snapshotBytes.Load(),
		EgressDeltaBytes:    s.stats.deltaBytes.Load(),
		EgressMapBytes:      s.stats.mapBytes.Load(),
		InsertsApplied:      s.stats.insertsApplied.Load(),
		DeletesApplied:      s.stats.deletesApplied.Load(),
		Scheme:              s.key.Public().Scheme.String(),
		SignOps:             signOps,
		RecoverOps:          uint64(s.stats.signOps.RecoverOps.Load()),
		Commits:             commits,
		SigsPerCommit:       perCommit,
		BatchRounds:         s.stats.batchRounds.Load(),
		BatchOps:            s.stats.batchOps.Load(),
		MaxRound:            s.stats.maxRound.Load(),
		Splits:              s.stats.splits.Load(),
		Merges:              s.stats.merges.Load(),
		ReshardResigns:      s.stats.reshardResigns.Load(),
		ReshardPagesMoved:   s.stats.reshardPagesMoved.Load(),

		ReshardTailReplayed:    s.stats.reshardTailReplayed.Load(),
		ReshardTailPrereplayed: s.stats.reshardTailPrereplayed.Load(),
		ReshardCatchupRounds:   s.stats.reshardCatchupRounds.Load(),
		ReshardBuildMs:         float64(s.stats.reshardBuildNanos.Load()) / 1e6,
		ReshardBarrierStallMs:  float64(s.stats.reshardBarrierNanos.Load()) / 1e6,
	}
}
