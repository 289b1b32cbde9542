package main

import (
	"context"
	"errors"
	"fmt"

	"edgeauth/internal/digest"
	"edgeauth/internal/query"
	"edgeauth/internal/rpc"
	"edgeauth/internal/schema"
	"edgeauth/internal/shardmap"
	"edgeauth/internal/sig"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/verify"
	"edgeauth/internal/vo"
	"edgeauth/internal/wire"
)

// The traced pass. It makes the calls the real path makes, in the same
// order, into each layer's public functions, from this file, and records
// a span around each. One client, so nothing queues.
//
// A verified read is, at the client, query.Compile, ShardQueryRequest
// .Encode, rpc.Conn.Call, DecodeShardQueryResponse, shardmap.DecodeSigned
// + VerifyShardMap, VerifyAnchored: those spans are on the blocking path
// (parent 0) and sum to the read's latency. What the edge does inside the
// call (DecodeShardQueryRequest, query.Compile, RunShardQuery, the
// response's Encode) is replayed right after it, as children of the
// rpc.call span; the call's self time is then the rpc layer's own:
// framing, loopback TCP, dispatch and the goroutine hand-offs.
//
// A committed, visible write is BatchRequest codec, central.ApplyBatch
// (called directly: a batch cannot be applied twice, so its round trip is
// priced at one rpc.echo_us), BatchResponse codec, edge.RefreshAll, then
// a verified read. What ApplyBatch and RefreshAll do inside is replayed
// on twins (twin.go) as their children.

const (
	// onPath parents a span on the operation's blocking path.
	onPath = 0
	// offPath parents a measurement beside the path: a stage re-measured
	// another way, or upkeep the timed figures do not include.
	offPath = -1
)

// pipeline holds what the traced pass needs beside the deployment.
type pipeline struct {
	d     *deployment
	tr    *tracer
	conn  *rpc.Conn // the traced reads' own connection to the edge
	reads *readTwin
	write *writeTwin // nil when the workload has no writer

	warm *verify.Verifier // default cache: what the client runs
	cold *verify.Verifier // CacheSize -1, counting: the price of a miss
	ops  digest.Counters  // hash, combine and recover counts of cold
	pub  *sig.PublicKey

	nextTrace               int
	readTraces, roundTraces []int

	respBytes, pagesRead    []float64
	resigned, signOps       []float64
	walBytesPerTuple        []float64
	deltaBytesPerTuple      []float64
	refreshes, deltaRefresh int
}

func newPipeline(ctx context.Context, d *deployment, withWriter bool) (*pipeline, error) {
	p := &pipeline{d: d, tr: newTracer(), conn: rpc.New(d.edgeAddr, rpc.Options{})}
	if err := p.conn.Connect(ctx); err != nil {
		return nil, err
	}
	var err error
	if p.reads, err = newReadTwin(d); err != nil {
		return nil, err
	}
	if withWriter {
		if p.write, err = newWriteTwin(d); err != nil {
			return nil, err
		}
	}
	params := wire.AccParamsFrom(d.central.Accumulator()).ToDigestParams()
	warmAcc, err := digest.New(params)
	if err != nil {
		return nil, err
	}
	params.Counters = &p.ops
	coldAcc, err := digest.New(params)
	if err != nil {
		return nil, err
	}
	p.pub = d.central.PublicKey()
	counting := *p.pub
	counting.Counters = &p.ops
	warmKeys, coldKeys := sig.NewRegistry(), sig.NewRegistry()
	warmKeys.Put(p.pub)
	coldKeys.Put(&counting)
	p.warm = &verify.Verifier{Keys: warmKeys, Acc: warmAcc, Schema: d.sch}
	p.cold = &verify.Verifier{Keys: coldKeys, Acc: coldAcc, Schema: d.sch, CacheSize: -1}
	return p, nil
}

func (p *pipeline) close() {
	_ = p.conn.Close() // a close error at teardown changes no result
	if p.write != nil {
		p.write.close()
	}
}

// span times fn as a span of trace id under parent and returns its id.
func (p *pipeline) span(id, parent int, name string, fn func() error) (int, error) {
	s := p.tr.begin(id, parent, name)
	err := fn()
	p.tr.end(s)
	if err != nil {
		return s, fmt.Errorf("%s: %w", name, err)
	}
	return s, nil
}

// echo times the smallest request's round trip.
func (p *pipeline) echo(ctx context.Context) error {
	p.nextTrace++
	_, err := p.span(p.nextTrace, offPath, "rpc.echo", func() error {
		_, err := p.conn.Call(ctx, wire.MsgListTablesReq, nil, wire.MsgListTablesResp, true)
		return err
	})
	return err
}

// read traces one verified read as its own trace.
func (p *pipeline) read(ctx context.Context, op readOp) error {
	p.nextTrace++
	p.readTraces = append(p.readTraces, p.nextTrace)
	return p.readIn(ctx, p.nextTrace, op)
}

// readIn traces one verified read inside trace id.
func (p *pipeline) readIn(ctx context.Context, id int, op readOp) error {
	d := p.d
	var q vbtree.Query
	if _, err := p.span(id, onPath, "query.compile", func() (err error) {
		q, err = query.Compile(d.sch, query.Spec{Predicates: op.preds(), Project: op.project})
		return err
	}); err != nil {
		return err
	}
	// The client routes on its cached verified map: no stage of its own.
	routing, err := d.edge.SignedShardMap(table)
	if err != nil {
		return err
	}
	first, last := routing.Map.ShardsForRange(q.Lo, q.Hi)
	rows, respBytes, pages := 0, 0, 0
	for shard := first; shard <= last; shard++ {
		n, rb, pg, err := p.readShard(ctx, id, op, shard)
		if err != nil {
			return fmt.Errorf("shard %d: %w", shard, err)
		}
		rows, respBytes, pages = rows+n, respBytes+rb, pages+pg
	}
	if want, _, _ := d.oracle.expect(op.lo, op.hi); rows != want {
		return fmt.Errorf("%w: traced [%d,%d] returned %d rows, want %d", errOracle, op.lo, op.hi, rows, want)
	}
	p.respBytes = append(p.respBytes, float64(respBytes))
	p.pagesRead = append(p.pagesRead, float64(pages))
	return nil
}

// readShard is the per-shard part of a verified read.
func (p *pipeline) readShard(ctx context.Context, id int, op readOp, shard int) (rows, respBytes, pages int, err error) {
	d := p.d
	var reqBody, respBody []byte
	if _, err = p.span(id, onPath, "wire.req", func() error {
		reqBody = (&wire.ShardQueryRequest{Shard: uint32(shard), Query: &wire.QueryRequest{
			Table: table, Predicates: op.preds(), Project: op.project, ProjectAll: op.project == nil,
		}}).Encode()
		return nil
	}); err != nil {
		return
	}
	call, err := p.span(id, onPath, "rpc.call", func() (err error) {
		respBody, err = p.conn.Call(ctx, wire.MsgShardQueryReq, reqBody, wire.MsgShardQueryResp, true)
		return err
	})
	if err != nil {
		return
	}
	respBytes = len(respBody)
	var resp *wire.ShardQueryResponse
	respSpan, err := p.span(id, onPath, "wire.resp", func() (err error) {
		resp, err = wire.DecodeShardQueryResponse(respBody)
		return err
	})
	if err != nil {
		return
	}
	var bound *shardmap.Signed
	if _, err = p.span(id, onPath, "shardmap.verify", func() (err error) {
		if bound, err = shardmap.DecodeSigned(resp.SignedMap); err != nil {
			return err
		}
		return p.warm.VerifyShardMap(bound, table)
	}); err != nil {
		return
	}
	rs, w := resp.Resp.Result, resp.Resp.VO
	root := bound.Map.Shards[shard].RootDigest
	if _, err = p.span(id, onPath, "verify.vo_warm", func() error {
		return p.warm.VerifyAnchored(rs, w, root)
	}); err != nil {
		return
	}

	// Beside the path: the same answer verified with no cache, the one
	// root-signature check a miss pays, and the VO and result codec alone.
	cold, err := p.span(id, offPath, "verify.vo_cold", func() error {
		return p.cold.VerifyAnchored(rs, w, root)
	})
	if err != nil {
		return
	}
	if _, err = p.span(id, cold, "sig.verify", func() error {
		return p.pub.Verify(w.RootSig, w.TopDigest)
	}); err != nil {
		return
	}
	if _, err = p.span(id, respSpan, "vo.codec", func() error {
		if _, _, err := vo.DecodeVO(w.Encode(nil)); err != nil {
			return err
		}
		_, _, err := vo.DecodeResultSet(rs.Encode(nil))
		return err
	}); err != nil {
		return
	}

	// Inside the call: what the edge did, replayed as the call's children.
	var req *wire.ShardQueryRequest
	if _, err = p.span(id, call, "wire.req", func() (err error) {
		req, err = wire.DecodeShardQueryRequest(reqBody)
		return err
	}); err != nil {
		return
	}
	var eq vbtree.Query
	if _, err = p.span(id, call, "query.compile", func() (err error) {
		eq, err = compileSpec(d.sch, req.Query)
		return err
	}); err != nil {
		return
	}
	var ers *vo.ResultSet
	var ew *vo.VO
	var esm *shardmap.Signed
	edgeSpan, err := p.span(id, call, "edge.query", func() (err error) {
		ers, ew, esm, err = d.edge.RunShardQuery(ctx, table, req.Shard, eq)
		return err
	})
	if err != nil {
		return
	}
	if _, err = p.span(id, edgeSpan, "vbtree.query", func() (err error) {
		pages, err = p.reads.query(ctx, d, shard, eq)
		return err
	}); err != nil {
		return
	}
	_, err = p.span(id, call, "wire.resp", func() error {
		_ = (&wire.ShardQueryResponse{Resp: &wire.QueryResponse{Result: ers, VO: ew}, SignedMap: esm.Encode()}).Encode()
		return nil
	})
	return len(rs.Tuples), respBytes, pages, err
}

// round traces one write round: commit, refresh, read-your-write, then
// the deletes that keep the table steady.
func (p *pipeline) round(ctx context.Context, w writeRound) error {
	d := p.d
	p.nextTrace++
	id := p.nextTrace
	p.roundTraces = append(p.roundTraces, id)
	tuples := tuplesFor(d.base, w.insert)

	var req *wire.BatchRequest
	if _, err := p.span(id, onPath, "wire.batch", func() (err error) {
		req, err = wire.DecodeBatchRequest((&wire.BatchRequest{Table: table, Tuples: tuples}).Encode())
		return err
	}); err != nil {
		return err
	}
	var opErrs []error
	signBefore := d.central.Stats().SignOps
	apply, err := p.span(id, onPath, "central.apply", func() (err error) {
		opErrs, err = d.central.ApplyBatch(req.Table, req.Tuples)
		return err
	})
	if err != nil {
		return err
	}
	if err := errors.Join(opErrs...); err != nil {
		return err
	}
	p.signOps = append(p.signOps, float64(d.central.Stats().SignOps-signBefore))
	d.oracle.inserted(w.insert)
	// The response codec is wire.batch too: perTrace sums the two spans.
	if _, err := p.span(id, onPath, "wire.batch", func() error {
		results := make([]wire.BatchOpResult, len(tuples))
		for i := range results {
			results[i].OK = true
		}
		_, err := wire.DecodeBatchResponse((&wire.BatchResponse{Results: results}).Encode())
		return err
	}); err != nil {
		return err
	}

	// Inside ApplyBatch: its WAL step, its tree step and one signature,
	// replayed on the write twin.
	groups := shardmap.Partition(d.sch, tuples, p.write.bounds)
	if _, err := p.span(id, apply, "wal.append_sync", func() error {
		n, err := p.write.logBatch(groups)
		p.walBytesPerTuple = append(p.walBytesPerTuple, ratio(float64(n), float64(len(tuples))))
		return err
	}); err != nil {
		return err
	}
	if _, err := p.span(id, apply, "vbtree.insert_batch", func() error {
		n, err := p.write.insertBatch(groups)
		p.resigned = append(p.resigned, float64(n))
		return err
	}); err != nil {
		return err
	}
	if _, err := p.span(id, apply, "sig.sign", func() error {
		_, err := p.write.key.Sign(make([]byte, d.central.Accumulator().Len()))
		return err
	}); err != nil {
		return err
	}

	refresh, err := p.span(id, onPath, "edge.refresh", func() error {
		stats, err := d.edge.RefreshAll(ctx)
		for _, st := range stats {
			p.refreshes++
			if st.Mode == "delta" {
				p.deltaRefresh++
			}
		}
		return err
	})
	if err != nil {
		return err
	}
	// Inside RefreshAll: the deltas the edge just pulled, built and coded
	// again; they also bring the read twin to the edge's version.
	var deltas []*wire.Delta
	if _, err := p.span(id, refresh, "central.delta", func() error {
		for s := 0; s < numShards; s++ {
			dl, err := d.central.ShardDelta(table, uint32(s), p.reads.version[s], p.reads.epoch)
			if err != nil {
				return err
			}
			deltas = append(deltas, dl)
		}
		return nil
	}); err != nil {
		return err
	}
	deltaBytes := 0
	if _, err := p.span(id, refresh, "wire.delta_codec", func() error {
		for _, dl := range deltas {
			body := dl.Encode()
			deltaBytes += len(body)
			if _, err := wire.DecodeDelta(body); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	p.deltaBytesPerTuple = append(p.deltaBytesPerTuple, ratio(float64(deltaBytes), float64(len(tuples))))
	for s, dl := range deltas {
		if dl.ToVersion == dl.FromVersion {
			continue
		}
		if err := p.reads.apply(s, dl); err != nil {
			return err
		}
	}

	k := w.last()
	if err := p.readIn(ctx, id, readOp{lo: k, hi: k}); err != nil {
		return err
	}
	if len(w.delete) == 0 {
		return nil
	}
	if _, err := p.span(id, offPath, "client.delete", func() error { return d.deleteRuns(ctx, w.delete) }); err != nil {
		return err
	}
	// The next round's refresh carries these deletes with its inserts, as
	// in the timed run.
	return p.write.deleteRuns(w.delete)
}

// compileSpec is query.Compile on a wire request, as edge.compile does.
func compileSpec(sch *schema.Schema, req *wire.QueryRequest) (vbtree.Query, error) {
	spec := query.Spec{Predicates: req.Predicates}
	if !req.ProjectAll {
		spec.Project = req.Project
	}
	return query.Compile(sch, spec)
}
