package edge

// The peer distribution tier: edges serving signed refresh traffic to
// other edges (see internal/peer for the trust argument).
//
// Serving side (Options.ServePeers): snapshots are materialized from
// the replica's published pinned sets — exactly the state the edge
// serves to clients — and deltas are relayed VERBATIM from the raw
// central-signed bodies this edge itself pulled and verified
// (internal/peer.Cache). Nothing is re-signed or re-encoded, so a
// downstream edge verifies a relayed payload with the same code paths,
// against the same central key, as one the central served directly.
//
// Pulling side (Options.Upstreams): the replication loop (edge.go) asks
// its ordered sources — the available upstreams, then the central as the
// implicit last resort — for every bulk payload through the same two
// fetchers, and each holds one source rule. Trust anchors — the signed
// shard map and the central public key — always come from the central:
// a peer cannot prove freshness, only relay integrity-protected bytes.
// So a peer-served snapshot must land exactly on the pin of the
// already-verified map, and a peer-served delta must verify AND make
// strict forward progress from the store's head; only the central may
// answer SnapshotNeeded or a noop, or serve a snapshot ahead of the map
// (bound to the final map before publish). Any peer failure
// (unreachable, typed behind/gap, bad signature, wrong shard, no
// progress) backs the source off and the refresh falls over to the next
// source, ending at the central. A malicious or wedged peer can
// therefore cost latency, never correctness and never a silent freeze.

import (
	"errors"
	"fmt"

	"edgeauth/internal/peer"
	"edgeauth/internal/wire"
)

// PeerStats reports the per-upstream pull counters in configured order
// (nil when the edge has no upstreams).
func (s *Server) PeerStats() []peer.SourceStats { return s.peers.Stats() }

// RelayStats reports the relay cache's lookup counters.
func (s *Server) RelayStats() peer.CacheStats { return s.relay.Stats() }

// countPull accounts one verified replication payload of n bytes pulled
// from src (nil: the central server).
func (s *Server) countPull(src *peer.Source, n int) {
	if src == nil {
		s.stats.centralPayloadsPulled.Add(1)
		s.stats.centralBytesPulled.Add(uint64(n))
		return
	}
	s.stats.peerPayloadsPulled.Add(1)
	s.stats.peerBytesPulled.Add(uint64(n))
	src.ReportSuccess(n)
}

// peerFail backs a source off and counts the failover.
func (s *Server) peerFail(src *peer.Source) {
	s.peers.Fail(src)
	s.stats.peerFailovers.Add(1)
}

// ---------------------------------------------------------------------
// Serving side.

// servePeer answers replication requests from this edge's replicated
// state. Gated by Options.ServePeers: a non-serving edge answers with a
// typed unsupported error.
func (s *Server) servePeer(mt wire.MsgType, body []byte) (wire.MsgType, []byte, error) {
	if !s.opts.ServePeers {
		return 0, nil, wire.Unsupported("edge", mt)
	}
	switch mt {
	case wire.MsgShardSnapshotReq:
		req, err := wire.DecodeShardSnapshotRequest(body)
		if err != nil {
			return 0, nil, err
		}
		return s.servePeerSnapshot(req.Table, req.ShardID)
	case wire.MsgShardDeltaReq:
		req, err := wire.DecodeShardDeltaRequest(body)
		if err != nil {
			return 0, nil, err
		}
		return s.servePeerDelta(req.Table, req.ShardID, req.FromVersion, req.Epoch)
	}
	return 0, nil, wire.Unsupported("edge", mt)
}

// servePeerSnapshot materializes one shard of the replica's published
// set as a wire snapshot — the same pinned state client queries read,
// so the snapshot a downstream installs is exactly what this edge
// serves.
func (s *Server) servePeerSnapshot(table string, id uint64) (wire.MsgType, []byte, error) {
	rep := s.replica(table)
	if rep == nil {
		return 0, nil, wire.UnknownTable("edge", table)
	}
	sr, err := rep.pinShardID(id)
	if err != nil {
		if errors.Is(err, errShardRange) {
			return 0, nil, wire.ShardMoved(table, err.Error())
		}
		return 0, nil, err
	}
	defer sr.snap.Release()
	snap, err := wire.NewSnapshot(sr.snap, sr.state, rep.sch)
	if err != nil {
		return 0, nil, err
	}
	out := snap.Encode()
	s.stats.peerPayloadsServed.Add(1)
	s.stats.peerBytesServed.Add(uint64(len(out)))
	return wire.MsgSnapshotResp, out, nil
}

// servePeerDelta relays a cached central-signed delta body for the
// requester's exact (epoch, fromVersion). The staleness guard comes
// first: a requester at or past this replica's own published state gets
// a typed Behind — never a fabricated empty delta — so it fails over
// instead of spinning; a requester inside our history that the relay
// cache cannot cover gets a typed DeltaGap steering it to a snapshot.
func (s *Server) servePeerDelta(table string, id, from, epoch uint64) (wire.MsgType, []byte, error) {
	rep := s.replica(table)
	if rep == nil {
		return 0, nil, wire.UnknownTable("edge", table)
	}
	set := rep.set.Load()
	if set == nil {
		return 0, nil, errors.New("edge: replica has no published set")
	}
	idx := set.indexOfID(id)
	if idx < 0 {
		return 0, nil, wire.ShardMoved(table, fmt.Sprintf("edge: replica of %q holds no shard with ID %d", table, id))
	}
	head := set.shards[idx].state
	if epoch != head.Epoch {
		return 0, nil, wire.Behind(table, fmt.Sprintf("edge: requester descends from epoch %d, peer replica from epoch %d", epoch, head.Epoch))
	}
	if from >= head.Version {
		return 0, nil, wire.Behind(table, fmt.Sprintf("edge: requester at v%d, peer replica head at v%d", from, head.Version))
	}
	ref := wire.ShardRef(table, id)
	body, _, ok := s.relay.Get(ref, epoch, from)
	if !ok {
		return 0, nil, wire.DeltaGap(table, fmt.Sprintf("edge: no relayable delta from v%d for %q; take a snapshot or fall back to the central", from, ref))
	}
	s.stats.peerPayloadsServed.Add(1)
	s.stats.peerBytesServed.Add(uint64(len(body)))
	return wire.MsgDeltaResp, body, nil
}
