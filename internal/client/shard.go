package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"

	"edgeauth/internal/query"
	"edgeauth/internal/schema"
	"edgeauth/internal/shardmap"
	"edgeauth/internal/verify"
	"edgeauth/internal/wire"
)

// Scatter-gather queries over a table's shards (one or many).
//
// The shard map travels through the untrusted edge, so the client treats
// it as attacker-controlled until verify.VerifyShardMap passes. A
// (cached) verified map routes the query: its boundaries decide which
// shards the key range intersects. Each shard answer then arrives with
// the signed map the edge held when producing it; the client verifies
// that attached map, demands every answer in the gather carry the SAME
// map (no mixing a stale shard answer into a fresh set), checks it
// descends from the routing map's epoch and boundaries, and binds each
// per-shard VO to the root digest the attached map pins for its shard.
//
// The completeness argument across shards: the verified boundaries tile
// the key space with no gaps (shardmap.Map.Validate), the client queries
// every shard its range intersects, and a verified answer must arrive
// for each — an edge that "loses" a shard cannot forge the missing
// VO, and the map signature stops it from hiding the shard's existence.

// errShardDrift marks a gather that raced the edge's refresh (or a
// routing map from a dead epoch): retryable with a fresh routing map,
// tampering only if it persists.
var errShardDrift = errors.New("client: shard answers drifted from the routing map")

// shardMap returns the table's verified routing map. force refetches
// even on a cache hit.
func (c *Client) shardMap(ctx context.Context, v *verify.Verifier, table string, force bool) (*shardmap.Signed, error) {
	c.smu.Lock()
	sm, ok := c.smaps[table]
	c.smu.Unlock()
	if ok && !force {
		return sm, nil
	}

	issued := c.mapMark(table)
	body, err := c.edge.Call(ctx, wire.MsgShardMapReq, []byte(table), wire.MsgShardMapResp, true)
	if err != nil {
		return nil, err
	}
	if sm, err = c.verifyMap(ctx, v, body, table); err != nil {
		return nil, err
	}
	if err := c.noteMapEpoch(table, issued, sm.Map); err != nil {
		return nil, err
	}
	c.smu.Lock()
	c.smaps[table] = sm
	c.smu.Unlock()
	return sm, nil
}

// mapMark reads the table's partition-epoch high-water mark. A request
// whose answer carries a shard map captures it BEFORE the request is
// issued: what counts as a replay is a map older than what the client
// had verified when it asked, not older than what another goroutine has
// verified by the time the answer arrives.
func (c *Client) mapMark(table string) mapGen {
	c.smu.Lock()
	defer c.smu.Unlock()
	return c.mapGens[table]
}

// noteMapEpoch ratchets the table's partition-epoch high-water mark
// forward and fails closed when a verified map regresses below the mark
// captured when its request was issued: a signed pre-split map replayed
// by the edge would otherwise route queries over dead boundaries and
// hide the shards a split created. A map at or above the issue-time mark
// but below the current one was overtaken in flight — another goroutine
// on this client verified a newer generation while this answer was on
// the wire — which is retryable drift: the retry is issued under the
// newer mark, so an edge that keeps presenting the old map fails closed
// on it. Must be called only with maps that already passed verifyMap.
func (c *Client) noteMapEpoch(table string, issued mapGen, m *shardmap.Map) error {
	if err := verify.CheckMapSuccession(issued.epoch, issued.mapEpoch, m); err != nil {
		return fmt.Errorf("%w: %w", ErrTampered, err)
	}
	c.smu.Lock()
	defer c.smu.Unlock()
	g := c.mapGens[table]
	if err := verify.CheckMapSuccession(g.epoch, g.mapEpoch, m); err != nil {
		return fmt.Errorf("%w: %w: overtaken in flight: %v", ErrTampered, errShardDrift, err)
	}
	if g.epoch != m.Epoch || m.MapEpoch > g.mapEpoch {
		c.mapGens[table] = mapGen{epoch: m.Epoch, mapEpoch: m.MapEpoch}
	}
	return nil
}

// verifyMap decodes and checks a signed map from the bytes it arrived
// in (verify.VerifySignedMap: once per distinct bytes, the key's validity
// on every call), refetching the trusted key once when the map is signed
// under an unknown (possibly rotated-to) key version. The map returned is
// read-only.
func (c *Client) verifyMap(ctx context.Context, v *verify.Verifier, raw []byte, table string) (*shardmap.Signed, error) {
	sm, err := v.VerifySignedMap(raw, table)
	if err != nil && errors.Is(err, verify.ErrKeyVersion) && !errors.Is(err, verify.ErrFreshness) {
		if kerr := c.FetchTrustedKey(ctx); kerr != nil {
			return nil, fmt.Errorf("client: refetching trusted key after %v: %w", err, kerr)
		}
		sm, err = v.VerifySignedMap(raw, table)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: shard map: %v", ErrTampered, err)
	}
	return sm, nil
}

// InvalidateShardMap drops the cached routing map for a table (tests and
// long-lived sessions after repartitioning).
func (c *Client) InvalidateShardMap(table string) {
	c.smu.Lock()
	defer c.smu.Unlock()
	delete(c.smaps, table)
}

// shardAnswer is one shard's raw response, gathered before verification.
type shardAnswer struct {
	shard int
	resp  *wire.ShardQueryResponse
	bytes int
	err   error
}

// queryShards runs the scatter-gather: one ShardQueryReq per qualifying
// shard (several go out concurrently — the requests pipeline over the one
// multiplexed edge connection), then per-shard verification anchored at the
// attached, mutually-identical signed map, then a key-ordered stitch.
func (c *Client) queryShards(ctx context.Context, v *verify.Verifier, routing *shardmap.Signed, table string, preds []query.Predicate, project []string) (*QueryResult, error) {
	// Compile locally to learn the key range; the edge compiles the same
	// spec per shard (compilation is deterministic over the schema).
	q, err := query.Compile(v.Schema, query.Spec{Predicates: preds, Project: project})
	if err != nil {
		return nil, err
	}
	first, last := routing.Map.ShardsForRange(q.Lo, q.Hi)
	n := last - first + 1

	issued := c.mapMark(table)
	answers := make([]shardAnswer, n)
	ask := func(i int) {
		req := &wire.ShardQueryRequest{
			Shard: uint32(first + i),
			Query: &wire.QueryRequest{
				Table:      table,
				Predicates: preds,
				Project:    project,
				ProjectAll: project == nil,
			},
		}
		a := shardAnswer{shard: first + i}
		body, err := c.edge.Call(ctx, wire.MsgShardQueryReq, req.Encode(), wire.MsgShardQueryResp, true)
		if err != nil {
			a.err = err
		} else {
			a.bytes = len(body)
			a.resp, a.err = wire.DecodeShardQueryResponse(body)
		}
		answers[i] = a
	}
	if n == 1 {
		// Nothing to overlap: the call runs on the caller's goroutine (every
		// point read, and every range that stays inside one shard).
		ask(0)
	} else {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ask(i)
			}(i)
		}
		wg.Wait()
	}

	// A transport failure or refusal for any qualifying shard fails the
	// whole query: an incomplete range answer must never look complete.
	// A shard-moved refusal means the scatter raced an online split or
	// merge — the routing map's positions are dead, which a fresh map
	// repairs, so it surfaces as retryable drift rather than a failure.
	for _, a := range answers {
		if a.err != nil {
			if errors.Is(a.err, wire.ErrShardMoved) {
				return nil, fmt.Errorf("%w: shard %d of %q: %w", errShardDrift, a.shard, table, a.err)
			}
			return nil, fmt.Errorf("client: shard %d of %q: %w", a.shard, table, a.err)
		}
	}

	// Every answer must carry the same signed map — byte-identical. A
	// mismatch means either the scatter straddled an edge refresh
	// (retryable) or the edge is mixing answer generations (the
	// stale-single-shard attack); the caller retries once with a fresh
	// routing map before declaring tampering.
	for _, a := range answers[1:] {
		if !bytes.Equal(a.resp.SignedMap, answers[0].resp.SignedMap) {
			return nil, fmt.Errorf("%w: %w: shards %d and %d answered under different shard maps",
				ErrTampered, errShardDrift, answers[0].shard, a.shard)
		}
	}
	bound, err := c.verifyMap(ctx, v, answers[0].resp.SignedMap, table)
	if err != nil {
		return nil, err
	}
	// The replay ratchet applies to the attached map too: a signed map
	// from before a split this client had already verified when it
	// scattered fails closed here, it never reaches the drift retry.
	if err := c.noteMapEpoch(table, issued, bound.Map); err != nil {
		return nil, err
	}
	// The attached map must describe the same partition the routing map
	// did, or the shard selection above was computed over dead
	// boundaries. A newer partition epoch (an online split or merge
	// landed mid-scatter) is retryable drift: the caller re-routes once
	// against the fresh map.
	if bound.Map.Epoch != routing.Map.Epoch || bound.Map.MapEpoch != routing.Map.MapEpoch ||
		!boundariesEqual(bound.Map.Boundaries, routing.Map.Boundaries) {
		return nil, fmt.Errorf("%w: %w: partition changed between routing and answers",
			ErrTampered, errShardDrift)
	}

	// Bind each shard's VO to the root digest the verified attached map
	// pins. One trusted-key refetch is allowed across the whole gather.
	refetched := false
	out := &QueryResult{ShardsQueried: n}
	for _, a := range answers {
		rs, w := a.resp.Resp.Result, a.resp.Resp.VO
		rootDigest := bound.Map.Shards[a.shard].RootDigest
		err := v.VerifyAnchored(rs, w, rootDigest)
		if err != nil && errors.Is(err, verify.ErrKeyVersion) && !errors.Is(err, verify.ErrFreshness) && !refetched {
			if kerr := c.FetchTrustedKey(ctx); kerr != nil {
				return nil, fmt.Errorf("client: refetching trusted key after %v: %w", err, kerr)
			}
			refetched = true
			err = v.VerifyAnchored(rs, w, rootDigest)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: shard %d: %w", ErrTampered, a.shard, err)
		}
	}

	// Keep the freshest verified map cached for the next routing pass.
	if bound.Map.MapVersion > routing.Map.MapVersion {
		c.smu.Lock()
		c.smaps[table] = bound
		c.smu.Unlock()
	}

	// Stitch in shard order — shards cover ascending disjoint ranges, so
	// the concatenation is key-ordered. The first shard's result set is
	// the stitched one (each decoded answer is this call's own), so a
	// one-shard answer is handed over as decoded.
	for _, a := range answers {
		rs, w := a.resp.Resp.Result, a.resp.Resp.VO
		switch {
		case out.Result == nil:
			out.Result = rs
		case !sameColumns(out.Result.Columns, rs.Columns):
			return nil, fmt.Errorf("%w: shard %d returned columns %v, shard %d returned %v",
				ErrTampered, answers[0].shard, out.Result.Columns, a.shard, rs.Columns)
		default:
			out.Result.Keys = append(out.Result.Keys, rs.Keys...)
			out.Result.Tuples = append(out.Result.Tuples, rs.Tuples...)
		}
		out.ShardVOs = append(out.ShardVOs, w)
		out.VOBytes += w.WireSize()
		out.ResultBytes += rs.WireSize()
	}
	if n == 1 {
		out.VO = out.ShardVOs[0]
	}
	return out, nil
}

// Reshard asks the central server to split or merge a shard online (the
// admin path behind centrald's reshard frame). The table's cached
// routing map is invalidated on success so the next query routes over
// the new partition immediately instead of riding the drift retry.
//
// The ack is advisory: its fields (new generation, shard count) inform
// operators and tests but never feed verification or routing — those
// always come from a signature-verified shard map. It also arrives on
// the central connection, the same trusted channel the §3.4 key
// distribution rides, not from an untrusted edge.
func (c *Client) Reshard(ctx context.Context, req *wire.ReshardRequest) (*wire.ReshardResponse, error) {
	body, err := c.central.Call(ctx, wire.MsgReshardReq, req.Encode(), wire.MsgReshardResp, false)
	if err != nil {
		return nil, err
	}
	resp, err := wire.DecodeReshardResponse(body)
	if err != nil {
		return nil, err
	}
	c.InvalidateShardMap(req.Table)
	return resp, nil //vetauth:ignore trustflow advisory ack from the trusted central channel; routing and verification always use the signature-verified map
}

func boundariesEqual(a, b []schema.Datum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Compare(b[i]) != 0 {
			return false
		}
	}
	return true
}

func sameColumns(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
