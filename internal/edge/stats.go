package edge

import "sync/atomic"

// edgeCounters aggregates the edge server's observable activity; bumped
// on hot paths, read by the Stats snapshot (exposed over expvar by
// edged's -debug-addr).
type edgeCounters struct {
	queriesServed      atomic.Uint64
	voBytes            atomic.Uint64
	answerMemoHits     atomic.Uint64
	answerMemoMisses   atomic.Uint64
	refreshesApplied   atomic.Uint64
	deltasApplied      atomic.Uint64
	snapshotsInstalled atomic.Uint64
	// reshardsApplied counts partition transitions this edge followed: a
	// new map epoch where carried-over shard stores were re-bound and
	// only the transition's new shards were snapshot-installed.
	reshardsApplied atomic.Uint64

	// Peer distribution tier: replication payloads split by which side
	// of the tier moved them. Served = this edge acting as an upstream;
	// pulled = this edge refreshing, split peer vs central so the CDN
	// effect (central egress shrinking as peers absorb bulk) is directly
	// observable.
	peerPayloadsServed    atomic.Uint64
	peerBytesServed       atomic.Uint64
	peerPayloadsPulled    atomic.Uint64
	peerBytesPulled       atomic.Uint64
	centralPayloadsPulled atomic.Uint64
	centralBytesPulled    atomic.Uint64
	peerFailovers         atomic.Uint64
}

// Stats is a point-in-time snapshot of the edge's counters. The JSON
// field names are the expvar keys.
type Stats struct {
	QueriesServed uint64 `json:"queries_served"`
	// VOBytes is the total verification-object bytes attached to served
	// answers — the paper's communication-overhead metric, live.
	VOBytes uint64 `json:"vo_bytes"`
	// AnswerMemoHits/Misses ledger the shard queries the current set's
	// answer memo served and those it did not (see memo.go): each hit is
	// a VB-tree walk skipped.
	AnswerMemoHits     uint64 `json:"answer_memo_hits"`
	AnswerMemoMisses   uint64 `json:"answer_memo_misses"`
	RefreshesApplied   uint64 `json:"refreshes_applied"`
	DeltasApplied      uint64 `json:"deltas_applied"`
	SnapshotsInstalled uint64 `json:"snapshots_installed"`
	ReshardsApplied    uint64 `json:"reshards_applied"`
	// SigCacheHits/Misses ledger the verifier's verified-signature cache
	// on the refresh path: each hit is a signature verification skipped.
	SigCacheHits   uint64 `json:"sig_cache_hits"`
	SigCacheMisses uint64 `json:"sig_cache_misses"`
	// Peer tier counters (zero on edges not participating in the tier).
	PeerPayloadsServed    uint64 `json:"peer_payloads_served"`
	PeerBytesServed       uint64 `json:"peer_bytes_served"`
	PeerPayloadsPulled    uint64 `json:"peer_payloads_pulled"`
	PeerBytesPulled       uint64 `json:"peer_bytes_pulled"`
	CentralPayloadsPulled uint64 `json:"central_payloads_pulled"`
	CentralBytesPulled    uint64 `json:"central_bytes_pulled"`
	// PeerFailovers counts source failures that moved a refresh to the
	// next source (ultimately the central) — the tier's health signal.
	PeerFailovers uint64 `json:"peer_failovers"`
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	cache := s.ver.CacheStats()
	return Stats{
		QueriesServed:         s.stats.queriesServed.Load(),
		VOBytes:               s.stats.voBytes.Load(),
		AnswerMemoHits:        s.stats.answerMemoHits.Load(),
		AnswerMemoMisses:      s.stats.answerMemoMisses.Load(),
		RefreshesApplied:      s.stats.refreshesApplied.Load(),
		DeltasApplied:         s.stats.deltasApplied.Load(),
		SnapshotsInstalled:    s.stats.snapshotsInstalled.Load(),
		ReshardsApplied:       s.stats.reshardsApplied.Load(),
		SigCacheHits:          uint64(cache.Hits),
		SigCacheMisses:        uint64(cache.Misses),
		PeerPayloadsServed:    s.stats.peerPayloadsServed.Load(),
		PeerBytesServed:       s.stats.peerBytesServed.Load(),
		PeerPayloadsPulled:    s.stats.peerPayloadsPulled.Load(),
		PeerBytesPulled:       s.stats.peerBytesPulled.Load(),
		CentralPayloadsPulled: s.stats.centralPayloadsPulled.Load(),
		CentralBytesPulled:    s.stats.centralBytesPulled.Load(),
		PeerFailovers:         s.stats.peerFailovers.Load(),
	}
}
