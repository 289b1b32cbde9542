// Package client implements the trusted DB client of the paper's
// Figure 2: it obtains the central server's public key over an
// authenticated channel (the PKI stand-in), sends queries to an edge
// server, and verifies every result against its verification object
// before handing it to the application. Updates are routed to the central
// server, since only the central server holds the signing key.
//
// The client is context-first and safe for concurrent use: N goroutines
// can query through one Client and their requests pipeline over a single
// multiplexed connection per server, with responses demultiplexed by
// request ID. A dead cached connection is redialed with backoff instead of
// poisoning the client, and idempotent requests (queries, schema and key
// fetches) are retried once on a fresh connection.
package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"edgeauth/internal/digest"
	"edgeauth/internal/query"
	"edgeauth/internal/rpc"
	"edgeauth/internal/schema"
	"edgeauth/internal/shardmap"
	"edgeauth/internal/sig"
	"edgeauth/internal/verify"
	"edgeauth/internal/vo"
	"edgeauth/internal/wire"
)

// Config configures a Client.
type Config struct {
	// EdgeAddr is the edge server answering queries.
	EdgeAddr string
	// CentralAddr is the trusted central server receiving updates and
	// serving the public key.
	CentralAddr string
	// DialTimeout bounds each TCP connect attempt. 0 selects
	// rpc.DefaultDialTimeout.
	DialTimeout time.Duration
	// RedialAttempts is how many connect attempts are made when a cached
	// connection has died. 0 selects rpc.DefaultRedialAttempts.
	RedialAttempts int
	// RedialBackoff is the wait before the second connect attempt,
	// doubling per attempt. 0 selects rpc.DefaultRedialBackoff.
	RedialBackoff time.Duration
	// MaxClockSkew bounds how far a response's VO timestamp may deviate
	// from this client's own clock before the result is rejected as
	// stale or future-dated (the §3.4 freshness check — key validity is
	// always resolved against the client's clock, never the edge's).
	// 0 selects verify.DefaultMaxClockSkew; negative disables the
	// timestamp bound (key validity is still checked at the client
	// clock).
	MaxClockSkew time.Duration
}

func (c Config) rpcOptions() rpc.Options {
	return rpc.Options{
		DialTimeout:    c.DialTimeout,
		RedialAttempts: c.RedialAttempts,
		RedialBackoff:  c.RedialBackoff,
	}
}

// Client talks to one edge server and one central server.
type Client struct {
	cfg     Config
	edge    *rpc.Conn
	central *rpc.Conn
	keys    *sig.Registry

	vmu       sync.Mutex
	verifiers map[string]*verify.Verifier

	// smu guards the shard-map cache: the latest verified map per table.
	smu   sync.Mutex
	smaps map[string]*shardmap.Signed
	// mapGens is the partition-epoch high-water mark per table: the
	// freshest (incarnation, map epoch) this client has verified. A
	// correctly signed map regressing below the mark its request was
	// issued under is the replay-pre-split attack and fails closed
	// (verify.ErrMapReplay), never retried; see noteMapEpoch.
	mapGens map[string]mapGen
}

// mapGen records the freshest partition generation verified for a table.
type mapGen struct {
	epoch    uint64 // table incarnation
	mapEpoch uint64 // partition generation within the incarnation
}

// Dial creates a client and eagerly connects (and handshakes) to the
// edge server, so an unreachable edge surfaces immediately. The central
// connection is established on first use.
func Dial(ctx context.Context, cfg Config) (*Client, error) {
	c := newClient(cfg)
	if err := c.edge.Connect(ctx); err != nil {
		return nil, fmt.Errorf("client: dialing edge: %w", err)
	}
	return c, nil
}

func newClient(cfg Config) *Client {
	return &Client{
		cfg:       cfg,
		edge:      rpc.New(cfg.EdgeAddr, cfg.rpcOptions()),
		central:   rpc.New(cfg.CentralAddr, cfg.rpcOptions()),
		keys:      sig.NewRegistry(),
		verifiers: make(map[string]*verify.Verifier),
		smaps:     make(map[string]*shardmap.Signed),
		mapGens:   make(map[string]mapGen),
	}
}

// Close drops both connections.
func (c *Client) Close() {
	c.edge.Close()
	c.central.Close()
}

// FetchTrustedKey retrieves the central server's public key over the
// authenticated channel and registers it for verification.
func (c *Client) FetchTrustedKey(ctx context.Context) error {
	body, err := c.central.Call(ctx, wire.MsgPubKeyReq, nil, wire.MsgPubKeyResp, true)
	if err != nil {
		return err
	}
	var pk sig.PublicKey
	if err := pk.UnmarshalBinary(body); err != nil {
		return err
	}
	c.keys.Put(&pk)
	return nil
}

// TrustKey registers an out-of-band public key (e.g. baked into the app).
func (c *Client) TrustKey(pk *sig.PublicKey) {
	c.keys.Put(pk)
}

// verifier builds (and caches) the verifier for a table using the edge's
// schema response. The schema and accumulator parameters are not secret —
// a lying edge only causes verification to fail. Concurrent callers for
// an uncached table may fetch the schema twice; the last one wins, which
// is harmless because the response is deterministic.
func (c *Client) verifier(ctx context.Context, table string) (*verify.Verifier, error) {
	c.vmu.Lock()
	v, ok := c.verifiers[table]
	c.vmu.Unlock()
	if ok {
		return v, nil
	}
	body, err := c.edge.Call(ctx, wire.MsgSchemaReq, []byte(table), wire.MsgSchemaResp, true)
	if err != nil {
		return nil, err
	}
	resp, err := wire.DecodeSchemaResponse(body)
	if err != nil {
		return nil, err
	}
	acc, err := digest.New(resp.AccParams.ToDigestParams())
	if err != nil {
		return nil, err
	}
	v = &verify.Verifier{Keys: c.keys, Acc: acc, Schema: resp.Schema, MaxClockSkew: c.cfg.MaxClockSkew}
	c.vmu.Lock()
	c.verifiers[table] = v
	c.vmu.Unlock()
	return v, nil
}

// Schema returns the table schema as reported by the edge server.
func (c *Client) Schema(ctx context.Context, table string) (*schema.Schema, error) {
	v, err := c.verifier(ctx, table)
	if err != nil {
		return nil, err
	}
	return v.Schema, nil
}

// QueryResult is a verified query answer: the stitched union of the
// qualifying shards' verified answers.
type QueryResult struct {
	Result *vo.ResultSet
	// VO is the verification object of a query that touched exactly one
	// shard. Cross-shard answers carry one VO per qualifying shard in
	// ShardVOs only.
	VO *vo.VO
	// ShardVOs holds the per-shard VOs of the scatter-gather answer, in
	// shard order.
	ShardVOs []*vo.VO
	// ShardsQueried is how many shards the answer was gathered from.
	ShardsQueried int
	// VOBytes / ResultBytes are the wire sizes, for cost accounting
	// (summed across shards).
	VOBytes     int
	ResultBytes int
}

// NumDigests sums the signed digests across the answer's VOs (the
// paper's VO size accounting unit).
func (r *QueryResult) NumDigests() int {
	n := 0
	for _, w := range r.ShardVOs {
		n += w.NumDigests()
	}
	return n
}

// ErrTampered wraps verification failures so applications can
// distinguish a compromised edge from transport errors.
var ErrTampered = errors.New("client: query result failed verification")

// Query runs a selection/projection at the edge and verifies the answer
// by scatter-gather: the client fetches the central-signed shard map
// from the edge, verifies it, queries every shard the key range
// intersects (in parallel over the pipelined connection), verifies each
// per-shard VO anchored at the root digest the map pins, and stitches the
// results in key order. A missing or stale shard answer fails
// verification — the edge cannot silently drop a shard from a range
// answer.
func (c *Client) Query(ctx context.Context, table string, preds []query.Predicate, project []string) (*QueryResult, error) {
	v, err := c.verifier(ctx, table)
	if err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		// A retry refetches the routing map: the gather straddled an edge
		// refresh (answers from two map generations), raced an online
		// split/merge, was overtaken by a newer generation verified on
		// another goroutine, or the cached routing map described a dead
		// partition. Drift is benign racing as long as it stops — under a
		// busy edge republishing every tick, several gathers can straddle
		// back to back — so the retry is a bounded loop, and only drift
		// that persists through it surfaces as the tampering verdict.
		// Every retry re-verifies from scratch; an attacker steering the
		// loop gains nothing but delay.
		var res *QueryResult
		sm, err := c.shardMap(ctx, v, table, attempt > 0)
		if err == nil {
			res, err = c.queryShards(ctx, v, sm, table, preds, project)
		}
		if err == nil || !errors.Is(err, errShardDrift) || attempt >= maxShardDriftRetries {
			return res, err
		}
	}
}

// maxShardDriftRetries bounds the benign-drift retry loop: each retry
// costs one map fetch plus one scatter, and a gather's chance of
// straddling yet another republish shrinks geometrically, so a small
// bound separates racing (converges in a try or two) from an edge that
// cannot or will not produce a consistent gather (tampering verdict).
const maxShardDriftRetries = 6

// Insert sends a tuple insert to the central server: a batch of one,
// returning that tuple's error. Inserts are not idempotent, so a
// connection failure after the request may have been sent is reported
// instead of retried.
func (c *Client) Insert(ctx context.Context, table string, tup schema.Tuple) error {
	opErrs, err := c.InsertBatch(ctx, table, []schema.Tuple{tup})
	if err != nil {
		return err
	}
	return opErrs[0]
}

// InsertBatch ships tuples to the central server in one frame, where they
// commit in one group (one WAL fsync, one version bump, one tree re-sign
// pass), together with any other client's inserts that arrive at the same
// time. The returned slice is index-aligned with tuples: a nil
// entry means inserted, a non-nil entry carries that tuple's typed
// failure (errors.Is-matchable, e.g. wire.ErrDuplicateKey) without
// affecting its neighbours. The error return is transport- or
// table-level.
func (c *Client) InsertBatch(ctx context.Context, table string, tuples []schema.Tuple) ([]error, error) {
	if len(tuples) == 0 {
		return nil, nil
	}
	req := &wire.BatchRequest{Table: table, Tuples: tuples}
	body, err := c.central.Call(ctx, wire.MsgBatchReq, req.Encode(), wire.MsgBatchResp, false)
	if err != nil {
		return nil, err
	}
	resp, err := wire.DecodeBatchResponse(body)
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(tuples) {
		return nil, fmt.Errorf("client: batch response carries %d results for %d tuples", len(resp.Results), len(tuples))
	}
	out := make([]error, len(tuples))
	for i, r := range resp.Results {
		out[i] = r.Err()
	}
	return out, nil
}

// DeleteRange sends a key-range delete to the central server and returns
// the number of removed tuples.
func (c *Client) DeleteRange(ctx context.Context, table string, lo, hi *schema.Datum) (int, error) {
	req := &wire.DeleteRequest{Table: table}
	if lo != nil {
		req.HasLo, req.Lo = true, *lo
	}
	if hi != nil {
		req.HasHi, req.Hi = true, *hi
	}
	body, err := c.central.Call(ctx, wire.MsgDeleteReq, req.Encode(), wire.MsgDeleteResp, false)
	if err != nil {
		return 0, err
	}
	n, err := wire.DecodeU64(body)
	return int(n), err
}

// EdgeTables lists tables available at the edge server.
func (c *Client) EdgeTables(ctx context.Context) ([]string, error) {
	body, err := c.edge.Call(ctx, wire.MsgListTablesReq, nil, wire.MsgListTablesResp, true)
	if err != nil {
		return nil, err
	}
	return wire.DecodeStringList(body)
}

// InvalidateSchema drops the cached verifier for a table (after schema or
// key changes).
func (c *Client) InvalidateSchema(table string) {
	c.vmu.Lock()
	defer c.vmu.Unlock()
	delete(c.verifiers, table)
}

// VerifyCacheStats sums the verified-digest cache ledgers across the
// client's table verifiers: hits are signature operations repeat queries
// skipped entirely.
func (c *Client) VerifyCacheStats() verify.CacheStats {
	c.vmu.Lock()
	defer c.vmu.Unlock()
	var total verify.CacheStats
	for _, v := range c.verifiers {
		cs := v.CacheStats()
		total.Hits += cs.Hits
		total.Misses += cs.Misses
	}
	return total
}
