package central

import (
	"context"
	"errors"
	"strconv"
	"sync"

	"edgeauth/internal/schema"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/wal"
	"edgeauth/internal/wire"
)

// Group-committed writes: the front half of the central write path.
//
// Every insert is a batch — a client's single insert is a batch of one —
// and ApplyBatch commits one once per shard: the batch is
// range-partitioned, each shard group commits as one unit (one RecBatch
// WAL record + fsync, one shard version bump, one snapshot publish, one
// vbtree.InsertBatch, which rehashes each dirtied node once and for a
// batch of one is the paper's incremental insert restated for ordered
// commitments) — and the shard groups
// commit in parallel, because every shard has its own tree, lock and
// signed root.
//
// Every mutation that arrives over the wire — insert, delete, reshard —
// enters through one ordered per-table queue, the group-commit front
// door, and commits in arrival order. Concurrent insert requests of any
// size are coalesced by a leader/follower protocol, which makes the win
// transparent to unmodified clients: the first arrival becomes the
// leader and at once commits the run of inserts queued (up to MaxBatch
// tuples per round; a larger request commits alone), handing each
// request its own per-op results; arrivals during a commit queue up for
// the next round. A delete and a reshard are barriers: the leader first
// commits the inserts that arrived before one, then runs it alone at its
// queue position — so a delete can never commit ahead of an earlier
// insert on the same table. A request that cannot join a round (a tuple
// without a key column) is refused before it is queued, so it fails
// alone. A lone op commits the moment it arrives: coalescing happens
// only under concurrency, so it adds no idle latency.
// (Server.Insert, DeleteRange and ApplyBatch called directly are the
// in-process form: they commit on the caller's goroutine.)
//
// The back half — what a commit costs to reach the edges — is appendDelta
// (central.go): each shard's changelog window becomes one signed body,
// serialised once into the frame buffer of the connection that asked, and
// an edge asks for all of a table's dirtied shards at the same time.

// DefaultMaxBatch bounds one group-committed round when Options.MaxBatch
// is zero.
const DefaultMaxBatch = 128

// maxBatch resolves Options.MaxBatch (validated non-negative at
// construction): 0 = default.
func (s *Server) maxBatch() int {
	if s.opts.MaxBatch == 0 {
		return DefaultMaxBatch
	}
	return s.opts.MaxBatch
}

// ApplyBatch inserts tuples into a table as one group commit and returns
// per-op errors (index-aligned; nil = inserted). Per-op failures such as
// duplicate keys do not abort the rest of the batch; the error return is
// reserved for table-level failures. The batch is partitioned by key
// range and the per-shard sub-batches commit in parallel.
func (s *Server) ApplyBatch(tableName string, tuples []schema.Tuple) ([]error, error) {
	t, err := s.table(tableName)
	if err != nil {
		return nil, err
	}
	if len(tuples) == 0 {
		return nil, nil
	}
	if err := t.checkKeys(tuples); err != nil {
		return nil, err
	}

	// The partition read lock spans routing through republish: an online
	// split/merge waits out in-flight batches and batches wait out a
	// transition, so no tuple commits against a retired shard.
	t.partMu.RLock()
	defer t.partMu.RUnlock()
	part := t.part.Load()

	// Partition the batch by shard, remembering each tuple's original
	// index so per-op errors land back in caller order.
	groups := make([][]schema.Tuple, len(part.shards))
	indices := make([][]int, len(part.shards))
	for i, tup := range tuples {
		si := part.shardFor(tup.Key(t.sch))
		groups[si] = append(groups[si], tup)
		indices[si] = append(indices[si], i)
	}

	opErrs := make([]error, len(tuples))
	applied := make([]int, len(part.shards))
	shardErrs := make([]error, len(part.shards))
	var wg sync.WaitGroup
	for si := range part.shards {
		if len(groups[si]) == 0 {
			continue
		}
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			n, errs, err := s.applyShardBatch(t, part.shards[si], groups[si])
			applied[si] = n
			shardErrs[si] = err
			part.shards[si].ingestLoad.Add(uint64(len(groups[si])))
			for j, e := range errs {
				opErrs[indices[si][j]] = e
			}
		}(si)
	}
	wg.Wait()

	totalApplied := 0
	var firstErr error
	for si := range part.shards {
		totalApplied += applied[si]
		if shardErrs[si] != nil && firstErr == nil {
			firstErr = shardErrs[si]
		}
	}
	// Shards that committed are durable even when a sibling shard
	// failed, so the map must republish whenever anything applied —
	// otherwise edges would never learn about the committed tuples.
	if totalApplied > 0 {
		s.stats.insertsApplied.Add(uint64(totalApplied))
		s.stats.batchRounds.Add(1)
		s.stats.batchOps.Add(uint64(len(tuples)))
		s.stats.observeRound(len(tuples))
		// One map re-sign covers every shard the batch touched. Shard
		// locks are all released by now (see the commitMu ordering note
		// on table).
		if rerr := s.republishMap(t); rerr != nil && firstErr == nil {
			firstErr = rerr
		}
	}
	return opErrs, firstErr
}

// applyShardBatch commits one shard's sub-batch: one WAL record + fsync,
// one tree InsertBatch (one rehash per dirtied node), one version bump,
// one snapshot publish. Returns how many tuples applied and the
// sub-batch's per-op errors (aligned with its tuples).
func (s *Server) applyShardBatch(t *table, sh *shard, tuples []schema.Tuple) (int, []error, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var lsn uint64
	var err error
	if sh.log != nil {
		// One record, one fsync, for the whole sub-batch. Tuples that fail
		// per-op here fail identically (and as harmlessly) on replay.
		if lsn, err = sh.log.Append(wal.RecBatch, wal.EncodeBatchPayload(tuples)); err != nil {
			return 0, nil, err
		}
		if err := sh.log.Sync(); err != nil {
			return 0, nil, err
		}
	}
	stats, opErrs, err := sh.tree.InsertBatch(tuples)
	if err != nil {
		sh.stashJournal()
		return 0, opErrs, err
	}
	// Feed the load sketch and, when a transition has this shard pinned,
	// its delta tail — applied tuples only: a per-op failure (duplicate
	// key) applied nothing here, and replaying it into a transition child
	// would diverge the child from the parent's history.
	applied := tuples
	for j := range opErrs {
		if opErrs[j] != nil {
			applied = make([]schema.Tuple, 0, stats.Applied)
			for k, e := range opErrs {
				if e == nil {
					applied = append(applied, tuples[k])
				}
			}
			break
		}
	}
	for _, tup := range applied {
		sh.sketch.observe(tup.Key(t.sch))
	}
	if len(applied) > 0 && sh.tail != nil {
		sh.tail.recordInserts(applied)
	}
	if stats.Applied == 0 {
		sh.stashJournal()
		return 0, opErrs, nil
	}
	return stats.Applied, opErrs, s.commitShard(t, sh, lsn)
}

// pendingOp is one queued dispatch (insert, delete or reshard) awaiting
// its commit's outcome.
type pendingOp struct {
	// insert payload: the request's tuples, committed in one round with
	// the inserts queued beside it.
	tuples []schema.Tuple
	// delete payload
	delete bool
	lo, hi *schema.Datum
	// reshard payload: a partition transition, committed as a barrier op
	// exactly like a delete.
	reshard *reshardCmd

	done chan opResult // buffered; the leader always delivers exactly once
}

// reshardCmd is one queued partition transition over `parents` shards
// starting at `shard`: one parent is split (at boundary, or its
// load/key median when nil), two adjacent parents are merged. By the
// time a cmd reaches the barrier queue its transition is already
// prepared — the children are built and caught up — so tr carries the
// work to the leader.
type reshardCmd struct {
	shard    uint32
	parents  int
	boundary *schema.Datum
	tr       *preparedTransition
}

// barrier reports whether the op must commit alone at its queue
// position instead of coalescing into an insert round.
func (op *pendingOp) barrier() bool { return op.delete || op.reshard != nil }

// opResult carries an op's outcome back to its waiting dispatcher.
type opResult struct {
	n       int     // deleted-row count for deletes
	opErrs  []error // per-tuple errors for inserts
	reshard *wire.ReshardResponse
	err     error
}

// groupCommitter is the per-table coalescing queue. Ops commit in
// arrival order: runs of inserts coalesce into ApplyBatch rounds,
// barrier ops execute alone at their queue position.
type groupCommitter struct {
	mu      sync.Mutex
	queue   []*pendingOp
	leading bool
}

// enqueueDelete routes a range delete through the same ordered queue, so
// it cannot commit ahead of inserts that arrived before it.
func (s *Server) enqueueDelete(ctx context.Context, tableName string, lo, hi *schema.Datum) (int, error) {
	res, err := s.enqueueOp(ctx, tableName, &pendingOp{delete: true, lo: lo, hi: hi, done: make(chan opResult, 1)})
	if err != nil {
		return 0, err
	}
	return res.n, res.err
}

// enqueueBatch routes an insert request — one tuple or many — through the
// ordered queue: it commits after every op that arrived before it, in one
// round with the inserts queued beside it, and returns its own per-tuple
// errors. The calling goroutine either becomes the leader (committing
// every queued op, its own included) or waits for a leader's result. A
// request holding a tuple without a key column is refused here, before it
// could fail a round it shares.
func (s *Server) enqueueBatch(ctx context.Context, tableName string, tuples []schema.Tuple) ([]error, error) {
	t, err := s.table(tableName)
	if err != nil {
		return nil, err
	}
	if len(tuples) == 0 {
		return nil, nil
	}
	if err := t.checkKeys(tuples); err != nil {
		return nil, err
	}
	res, err := s.enqueueOp(ctx, tableName, &pendingOp{tuples: tuples, done: make(chan opResult, 1)})
	if err != nil {
		return nil, err
	}
	return res.opErrs, res.err
}

// checkKeys refuses tuples that are too short to hold the table's key
// column — they cannot be routed to a shard.
func (t *table) checkKeys(tuples []schema.Tuple) error {
	for i, tup := range tuples {
		if len(tup.Values) <= t.sch.Key {
			return &wire.WireError{Code: wire.CodeBadRequest, Table: t.sch.Table,
				Msg: "central: batch tuple " + strconv.Itoa(i) + " has no key column"}
		}
	}
	return nil
}

func (s *Server) enqueueOp(ctx context.Context, tableName string, op *pendingOp) (opResult, error) {
	t, err := s.table(tableName)
	if err != nil {
		return opResult{}, err
	}
	gc := &t.gc
	gc.mu.Lock()
	gc.queue = append(gc.queue, op)
	if gc.leading {
		gc.mu.Unlock()
		select {
		case res := <-op.done:
			return res, nil
		case <-ctx.Done():
			// The op stays queued and will still commit; the caller only
			// stops waiting for the acknowledgement — the same contract
			// as a timed-out commit on any database.
			return opResult{}, ctx.Err()
		}
	}
	gc.leading = true
	gc.mu.Unlock()
	s.leadCommits(tableName, gc)
	return <-op.done, nil
}

// leadCommits drains the queue in arrival order until it is empty, then
// steps down. Each round is either a run of consecutive insert ops (at
// most MaxBatch tuples, or one larger op alone, committed via ApplyBatch)
// or a single barrier op. Arrivals during a round queue for the next one.
func (s *Server) leadCommits(tableName string, gc *groupCommitter) {
	limit := s.maxBatch()
	for {
		gc.mu.Lock()
		if len(gc.queue) == 0 {
			gc.leading = false
			gc.mu.Unlock()
			return
		}
		if gc.queue[0].barrier() {
			// Barrier op: commit it alone, in its arrival position.
			op := gc.queue[0]
			gc.queue = append(gc.queue[:0:0], gc.queue[1:]...)
			gc.mu.Unlock()
			if op.reshard != nil {
				// The transition was prepared and caught up before it was
				// queued; the barrier position only orders its swap against
				// the writes around it.
				resp, err := s.finishReshard(op.reshard.tr)
				op.done <- opResult{reshard: resp, err: err}
			} else {
				n, err := s.DeleteRange(tableName, op.lo, op.hi)
				op.done <- opResult{n: n, err: err}
			}
			continue
		}
		// Take the longest run of insert ops that fits the round.
		n, size := 0, 0
		for n < len(gc.queue) && !gc.queue[n].barrier() {
			k := len(gc.queue[n].tuples)
			if n > 0 && size+k > limit {
				break
			}
			n, size = n+1, size+k
		}
		batch := make([]*pendingOp, n)
		copy(batch, gc.queue[:n])
		gc.queue = append(gc.queue[:0:0], gc.queue[n:]...)
		gc.mu.Unlock()

		tuples := make([]schema.Tuple, 0, size)
		for _, op := range batch {
			tuples = append(tuples, op.tuples...)
		}
		opErrs, err := s.ApplyBatch(tableName, tuples)
		// Split the per-tuple errors back by each op's offset in the round.
		off := 0
		for _, op := range batch {
			res := opResult{err: err}
			if opErrs != nil {
				res.opErrs = opErrs[off : off+len(op.tuples)]
			}
			off += len(op.tuples)
			op.done <- res
		}
	}
}

// batchResponse converts per-op errors into the typed wire results.
func batchResponse(count int, opErrs []error) *wire.BatchResponse {
	resp := &wire.BatchResponse{Results: make([]wire.BatchOpResult, count)}
	for i := range resp.Results {
		var err error
		if opErrs != nil {
			err = opErrs[i]
		}
		switch {
		case err == nil:
			resp.Results[i] = wire.BatchOpResult{OK: true}
		case errors.Is(err, vbtree.ErrDuplicateKey):
			resp.Results[i] = wire.BatchOpResult{Code: wire.CodeDuplicateKey, Msg: err.Error()}
		default:
			resp.Results[i] = wire.BatchOpResult{Code: wire.CodeBadRequest, Msg: err.Error()}
		}
	}
	return resp
}
