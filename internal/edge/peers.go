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
// Pulling side (Options.Upstreams): the refresh loop walks the
// configured upstreams in order for bulk payloads and keeps the central
// as the implicit last resort. Trust anchors — the signed shard map and
// the central public key — always come from the central: a peer cannot
// prove freshness, only relay integrity-protected bytes. Every
// peer-served payload must verify AND make strict forward progress
// against the already-verified map; any failure (unreachable, typed
// behind/gap, bad signature, wrong shard, no progress) backs the source
// off and the refresh falls over to the next source, ending at the
// central. A malicious or wedged peer can therefore cost latency, never
// correctness and never a silent freeze.

import (
	"context"
	"errors"
	"fmt"

	"edgeauth/internal/peer"
	"edgeauth/internal/shardmap"
	"edgeauth/internal/storage"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/wire"
)

// PeerTamperFn rewrites a replication payload before it leaves a
// serving edge — the model of a malicious relay peer. It receives the
// response frame type, the shard ref the payload answers, and the
// encoded body, and returns the body to serve instead.
type PeerTamperFn func(mt wire.MsgType, ref string, body []byte) []byte

// SetPeerTamper installs (or clears, with nil) the malicious-relay hook.
func (s *Server) SetPeerTamper(fn PeerTamperFn) { s.peerTamper.Store(&fn) }

// tamperedPeerBody routes an outgoing replication payload through the
// malicious-relay hook.
func (s *Server) tamperedPeerBody(mt wire.MsgType, ref string, body []byte) []byte {
	if tp := s.peerTamper.Load(); tp != nil && *tp != nil {
		return (*tp)(mt, ref, body)
	}
	return body
}

// PeerStats reports the per-upstream pull counters in configured order
// (nil when the edge has no upstreams).
func (s *Server) PeerStats() []peer.SourceStats { return s.peers.Stats() }

// RelayStats reports the relay cache's lookup counters.
func (s *Server) RelayStats() peer.CacheStats { return s.relay.Stats() }

// countCentralPull accounts one replication payload pulled from the
// central server.
func (s *Server) countCentralPull(n int) {
	s.stats.centralPayloadsPulled.Add(1)
	s.stats.centralBytesPulled.Add(uint64(n))
}

// countPeerPull accounts one verified payload pulled from a peer.
func (s *Server) countPeerPull(src *peer.Source, n int) {
	s.stats.peerPayloadsPulled.Add(1)
	s.stats.peerBytesPulled.Add(uint64(n))
	src.ReportSuccess(n)
}

// peerFail backs a source off and counts the failover.
func (s *Server) peerFail(src *peer.Source) {
	s.peers.Fail(src)
	s.stats.peerFailovers.Add(1)
}

// maxPeerHops bounds how many consecutive deltas one refresh accepts
// from one source — a guard rail, not a protocol limit (each accepted
// hop must advance the store, so the loop already cannot cycle).
const maxPeerHops = 64

// ---------------------------------------------------------------------
// Serving side.

// servePeer answers replication requests from this edge's replicated
// state. Gated by Options.ServePeers: a non-serving edge answers with a
// typed unsupported error.
func (s *Server) servePeer(ctx context.Context, mt wire.MsgType, body []byte) (wire.MsgType, []byte, error) {
	_ = ctx
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
	snap := &wire.Snapshot{
		Schema:     rep.sch,
		AccParams:  rep.params,
		Root:       sr.state.Root,
		Height:     uint32(sr.state.Height),
		RootSig:    sr.state.RootSig,
		PageSize:   uint32(sr.snap.PageSize()),
		HeapPages:  sr.state.HeapPages,
		KeyVersion: sr.state.KeyVersion,
		Version:    sr.state.Version,
		Epoch:      sr.state.Epoch,
	}
	for id := 1; id < sr.snap.NumPages(); id++ {
		buf, err := sr.snap.View(storage.PageID(id))
		if err != nil {
			return 0, nil, err
		}
		cp := make([]byte, len(buf))
		copy(cp, buf)
		snap.PageIDs = append(snap.PageIDs, storage.PageID(id))
		snap.PageData = append(snap.PageData, cp)
	}
	out := s.tamperedPeerBody(wire.MsgSnapshotResp, wire.ShardRef(table, id), snap.Encode())
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
	body = s.tamperedPeerBody(wire.MsgDeltaResp, ref, body)
	s.stats.peerPayloadsServed.Add(1)
	s.stats.peerBytesServed.Add(uint64(len(body)))
	return wire.MsgDeltaResp, body, nil
}

// ---------------------------------------------------------------------
// Pulling side.

// pullPeerSnapshot fetches one shard snapshot from a peer and verifies
// it strictly against the central-verified map: same epoch, the exact
// pinned version, and a root signature recovering to the pinned digest.
// A replayed stale snapshot or a wrong-shard payload fails here and the
// caller fails over — only the central itself may serve state the map
// cannot vouch for yet (commits racing a pull; bound later by
// verifyAlignedStores). Returns the wire size, the installed store and
// the verified snapshot.
func (s *Server) pullPeerSnapshot(ctx context.Context, src *peer.Source, tableName string, idx int, sm *shardmap.Signed) (int, *storage.PageStore, *wire.Snapshot, error) {
	req := &wire.ShardSnapshotRequest{Table: tableName, ShardID: sm.Map.Shards[idx].ID}
	body, err := src.Conn().Call(ctx, wire.MsgShardSnapshotReq, req.Encode(), wire.MsgSnapshotResp, true)
	if err != nil {
		return 0, nil, nil, err
	}
	snap, err := wire.DecodeSnapshot(body)
	if err != nil {
		return 0, nil, nil, err
	}
	if snap.Epoch != sm.Map.Epoch || snap.Version != sm.Map.Shards[idx].Version {
		return 0, nil, nil, wire.Behind(tableName, fmt.Sprintf(
			"edge: peer snapshot at epoch %d v%d, verified map pins epoch %d v%d",
			snap.Epoch, snap.Version, sm.Map.Epoch, sm.Map.Shards[idx].Version))
	}
	if err := s.verifySnapshot(ctx, snap, sm.Map.Shards[idx].RootDigest); err != nil {
		return 0, nil, nil, err
	}
	store, err := installStore(snap)
	if err != nil {
		return 0, nil, nil, err
	}
	s.stats.snapshotsInstalled.Add(1)
	s.countPeerPull(src, len(body))
	return len(body), store, snap, nil
}

// refreshShardFromPeers drains verified forward progress for one shard
// from the upstream peers: relayed deltas hop by hop, or a pinned
// snapshot when a current peer's relay cache cannot cover the gap
// (catch-up). Per-source failures back the source off and move to the
// next; only ctx expiry (or a local store fault) aborts. Returns the
// bytes pulled, "" / "delta" / "snapshot", and the (possibly replaced)
// store — the caller finishes from the central if the map's pin is
// still ahead of the store.
func (s *Server) refreshShardFromPeers(ctx context.Context, tableName string, store *storage.PageStore, idx int, st *vbtree.TableState, sm *shardmap.Signed) (int, string, *storage.PageStore, error) {
	id := sm.Map.Shards[idx].ID
	ref := wire.ShardRef(tableName, id)
	target := sm.Map.Shards[idx].Version
	var total int
	var mode string
	for _, src := range s.peers.Available() {
		for hops := 0; st.Version < target && hops < maxPeerHops; hops++ {
			if err := ctx.Err(); err != nil {
				return total, mode, store, err
			}
			req := &wire.ShardDeltaRequest{Table: tableName, ShardID: id, FromVersion: st.Version, Epoch: st.Epoch}
			body, err := src.Conn().Call(ctx, wire.MsgShardDeltaReq, req.Encode(), wire.MsgDeltaResp, true)
			if errors.Is(err, wire.ErrDeltaGap) {
				// The peer is current but cannot bridge our gap with a
				// relayed delta: bootstrap-style catch-up from its pinned
				// snapshot instead.
				n, fresh, _, serr := s.pullPeerSnapshot(ctx, src, tableName, idx, sm)
				total += n
				if serr != nil {
					if cerr := ctx.Err(); cerr != nil {
						return total, mode, store, cerr
					}
					s.peerFail(src)
					break
				}
				return total, "snapshot", fresh, nil
			}
			if err != nil {
				if cerr := ctx.Err(); cerr != nil {
					return total, mode, store, cerr
				}
				s.peerFail(src)
				break
			}
			d, err := wire.DecodeDelta(body)
			if err != nil {
				s.peerFail(src)
				break
			}
			if err := s.verifyDelta(ctx, d, body); err != nil {
				if cerr := ctx.Err(); cerr != nil {
					return total, mode, store, cerr
				}
				s.peerFail(src)
				break
			}
			// A relayed delta must anchor at our exact head and move it
			// strictly forward. SnapshotNeeded markers and noops are
			// central-only answers — from a peer they could replay
			// forever, so they count as a failed source instead.
			if d.Table != ref || d.SnapshotNeeded || d.Epoch != st.Epoch ||
				d.FromVersion != st.Version || d.ToVersion <= st.Version {
				s.peerFail(src)
				break
			}
			if err := applyDelta(store, d, ref); err != nil {
				s.peerFail(src)
				break
			}
			s.relay.Put(ref, d.Epoch, d.FromVersion, d.ToVersion, body)
			s.stats.deltasApplied.Add(1)
			s.countPeerPull(src, len(body))
			total += len(body)
			mode = "delta"
			if st, err = storeState(store); err != nil {
				return total, mode, store, err
			}
		}
		if st.Version >= target {
			break
		}
	}
	return total, mode, store, nil
}
