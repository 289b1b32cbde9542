package central

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"edgeauth/internal/schema"
	"edgeauth/internal/storage"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/wal"
	"edgeauth/internal/wire"
)

// Online resharding: splitting a hot shard in two (or merging a cold
// adjacent pair) under live traffic. Both are one transition shape: the
// parent shards [i, i+p) give way to children built from the parents'
// pinned tuples, cut at the transition's cut keys — a split is one
// parent and one cut, a merge two parents and no cut. A transition
// replaces exactly the children's roots plus the map — never the whole
// table — and commits as one new map epoch with an explicit parent
// link, so a replayed pre-transition map fails closed at every verifier.
// The barrier signs none of them: their contents are final at the
// barrier, and each is signed the first time a replica is shipped it.
//
// Transitions are incremental: the expensive part — streaming the child
// VB-tree builds out of the parent shard(s) — runs against a pinned
// snapshot WITHOUT the partition write lock, while a per-transition
// delta tail records every update that commits on the parents after the
// pin. The partition lock is taken only at the final barrier, which
// replays the (bounded) tail into the children, assigns their final
// version, signs nothing, WALs the RecReshard and swaps the generation. If the tail outgrows the
// configured bound, catch-up rounds replay it outside the lock first,
// so the in-lock stall is O(tail bound), never O(shard pages).
//
// Serialization: reshardMu admits one transition per table at a time.
// Through the group-commit front door the barrier is still a queue
// barrier, exactly like a delete: it commits alone at its arrival
// position, so it can never reorder around coalesced inserts on the
// same table. Snapshot pulls and delta serves are untouched throughout
// — they run lock-free against pinned snapshots of whichever partition
// generation they loaded.

// DefaultReshardTailBound caps how many delta-tail tuples a transition
// may replay inside the partition write lock: while the tail measured
// outside the lock exceeds the bound, extra catch-up rounds replay it
// lock-free before the barrier is taken.
const DefaultReshardTailBound = 64

// maxCatchupRounds bounds the pre-barrier catch-up loop: under a write
// rate that re-fills the tail faster than a round drains it, more
// lock-free rounds cannot converge, so the barrier takes whatever tail
// remains (the soak shows it stays near one round's arrivals).
const maxCatchupRounds = 8

// detectorAlpha is the hot-shard detector's EWMA smoothing factor.
const detectorAlpha = 0.3

// AutoReshardOptions configures the hot-shard detector: an EWMA over
// each shard's per-tick ingest counter, compared against the table-wide
// total.
type AutoReshardOptions struct {
	// Interval between detector ticks (and the EWMA's time base).
	// Required for the background loop; AutoReshardTick can be driven
	// manually (tests, cron) with Interval zero.
	Interval time.Duration
	// SplitFraction trips a split when one shard carries more than this
	// fraction of the table's total EWMA load. 0 selects 0.6.
	SplitFraction float64
	// MergeFraction trips a merge when an adjacent pair together carries
	// less than this fraction. 0 selects 0.05.
	MergeFraction float64
	// MaxShards bounds the partition size the detector will split up
	// to. Zero selects 64.
	MaxShards int
}

// Reshard executes one admin-commanded partition transition (the
// MsgReshardReq handler).
func (s *Server) Reshard(ctx context.Context, req *wire.ReshardRequest) (*wire.ReshardResponse, error) {
	switch req.Op {
	case wire.ReshardSplit:
		var b *schema.Datum
		if req.HasBoundary {
			b = &req.Boundary
		}
		return s.SplitShard(ctx, req.Table, req.Shard, b)
	case wire.ReshardMerge:
		return s.MergeShards(ctx, req.Table, req.Shard)
	}
	return nil, &wire.WireError{Code: wire.CodeBadRequest, Table: req.Table,
		Msg: fmt.Sprintf("central: unknown reshard op %v", req.Op)}
}

// SplitShard splits shard idx at boundary (nil = the shard's load
// median when the sketch is warm, else its key median), committing a
// new map epoch. The children are streamed from the parent's pinned
// state outside the partition lock; the swap fixes exactly their two
// roots plus the map, WALs a typed RecReshard record and commits the
// new generation at a bounded catch-up barrier.
func (s *Server) SplitShard(ctx context.Context, tableName string, idx uint32, boundary *schema.Datum) (*wire.ReshardResponse, error) {
	return s.runReshard(ctx, tableName, &reshardCmd{shard: idx, parents: 1, boundary: boundary})
}

// MergeShards merges shard idx with its right neighbor idx+1 — the
// inverse transition: one new tree over the pair's union, one new root
// plus the map, one new map epoch.
func (s *Server) MergeShards(ctx context.Context, tableName string, idx uint32) (*wire.ReshardResponse, error) {
	return s.runReshard(ctx, tableName, &reshardCmd{shard: idx, parents: 2})
}

// tailOp is one committed parent update recorded after the transition's
// snapshot pin: an applied insert run or a key-range delete.
type tailOp struct {
	tuples []schema.Tuple
	del    bool
	lo, hi *schema.Datum
}

// reshardTail is the delta tail of one in-flight transition. Writers
// append under their shard's write lock (so tail order is parent commit
// order — with a merge's shared tail, the interleaved global order);
// the transition drains it in catch-up rounds and at the barrier. The
// mutex is a leaf lock.
type reshardTail struct {
	mu     sync.Mutex
	ops    []tailOp
	queued int // tuples + deletes currently queued
}

func (rt *reshardTail) recordInserts(tuples []schema.Tuple) {
	if len(tuples) == 0 {
		return
	}
	rt.mu.Lock()
	rt.ops = append(rt.ops, tailOp{tuples: tuples})
	rt.queued += len(tuples)
	rt.mu.Unlock()
}

func (rt *reshardTail) recordDelete(lo, hi *schema.Datum) {
	rt.mu.Lock()
	rt.ops = append(rt.ops, tailOp{del: true, lo: lo, hi: hi})
	rt.queued++
	rt.mu.Unlock()
}

// drain takes the queued ops; writers keep appending behind it.
func (rt *reshardTail) drain() []tailOp {
	rt.mu.Lock()
	ops := rt.ops
	rt.ops = nil
	rt.queued = 0
	rt.mu.Unlock()
	return ops
}

func (rt *reshardTail) size() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.queued
}

// preparedTransition carries one transition from its unlocked build
// phase to the barrier.
type preparedTransition struct {
	t    *table
	part *partition // the generation the snapshots were pinned in
	// parents are part.shards[idx : idx+len(parents)]; child j covers
	// [cuts[j-1], cuts[j]) of their union, open at either end.
	idx     int
	parents []*shard
	cuts    []schema.Datum
	// installed lists the parents that had the tail hooked (for rollback).
	installed []*shard
	children  []*shard
	tail      *reshardTail
	op        *wal.ReshardOp
	// begun is true once the RecReshardBegin record is durable.
	begun bool
}

// uninstallTails detaches the delta tail from every parent it was
// installed on.
func (tr *preparedTransition) uninstallTails() {
	for _, p := range tr.installed {
		p.mu.Lock()
		if p.tail == tr.tail {
			p.tail = nil
		}
		p.mu.Unlock()
	}
	tr.installed = nil
}

// runReshard drives one transition end to end: prepare (pin + unlocked
// child builds), lock-free catch-up, then the barrier — as a barrier op
// through the ordered queue, so it cannot reorder around earlier writes.
func (s *Server) runReshard(ctx context.Context, tableName string, cmd *reshardCmd) (*wire.ReshardResponse, error) {
	t, err := s.table(tableName)
	if err != nil {
		return nil, err
	}
	t.reshardMu.Lock()
	defer t.reshardMu.Unlock()
	tr, err := s.prepareTransition(t, cmd)
	if err != nil {
		return nil, err
	}
	if err := s.preCatchUp(tr); err != nil {
		s.abortTransition(tr)
		return nil, err
	}
	cmd.tr = tr
	res, err := s.enqueueOp(ctx, tableName, &pendingOp{reshard: cmd, done: make(chan opResult, 1)})
	if err != nil {
		// ctx expired with the barrier op still queued: the leader owns
		// the prepared transition now and will finish (or abort) it; the
		// caller only stops waiting for the acknowledgement.
		return nil, err
	}
	return res.reshard, res.err
}

// prepareTransition is phase 1: validate, pin the parent snapshots and
// hook the delta tail (one shard-lock acquisition each — O(1), no
// scan), resolve a lone parent's cut, allocate the child IDs, make the
// transition's begin record durable and stream the child builds from
// the pinned views. No partition lock is held; concurrent batches keep
// committing against the parents and land in the tail.
func (s *Server) prepareTransition(t *table, cmd *reshardCmd) (tr *preparedTransition, err error) {
	part := t.part.Load()
	idx := int(cmd.shard)
	if idx < 0 || idx+cmd.parents > len(part.shards) {
		return nil, &wire.WireError{Code: wire.CodeBadRequest, Table: t.sch.Table,
			Msg: fmt.Sprintf("central: shards [%d,%d) out of range (table has %d shards)", idx, idx+cmd.parents, len(part.shards))}
	}

	// pt stays valid in the cleanup closure even on `return nil, err`
	// paths (which zero the named return).
	pt := &preparedTransition{t: t, part: part, idx: idx, parents: part.shards[idx : idx+cmd.parents], tail: &reshardTail{}}
	tr = pt
	var pins []*storage.Snapshot
	defer func() {
		for _, pin := range pins {
			pin.Release()
		}
		if err != nil {
			s.abortTransition(pt)
		}
	}()

	// Pin + hook, atomically per parent w.r.t. its writers: everything
	// committed so far is in the pin, everything after lands in the tail
	// — no gap, no double count.
	views := make([]*vbtree.View, len(tr.parents))
	for i, p := range tr.parents {
		p.mu.Lock()
		if p.tail != nil {
			p.mu.Unlock()
			return nil, &wire.WireError{Code: wire.CodeBadRequest, Table: t.sch.Table,
				Msg: fmt.Sprintf("central: shard %d already has a transition in progress", idx+i)}
		}
		pin, st, serr := p.snapState()
		if serr != nil {
			p.mu.Unlock()
			return nil, serr
		}
		p.tail = tr.tail
		p.mu.Unlock()
		tr.installed = append(tr.installed, p)
		pins = append(pins, pin)
		if views[i], err = st.ViewOver(pin, t.sch, s.acc, s.key.Public()); err != nil {
			return nil, err
		}
	}

	// A transition must change the shard count: a lone parent is cut in
	// two, adjacent parents become one child.
	if len(tr.parents) == 1 {
		b, berr := s.resolveBoundary(t, part, idx, tr.parents[0], views[0], cmd.boundary)
		if berr != nil {
			return nil, berr
		}
		tr.cuts = []schema.Datum{b}
	}

	// IDs are allocated only after validation succeeds (a rejected
	// request must not burn identities), under a brief partition write
	// lock — the allocator's guard.
	t.partMu.Lock()
	firstID := t.nextShardID
	t.nextShardID += uint64(len(tr.cuts) + 1)
	t.partMu.Unlock()

	op := &wal.ReshardOp{
		Split:       len(tr.cuts) > 0,
		Shard:       cmd.shard,
		MapEpoch:    part.mapEpoch + 1,
		ParentEpoch: part.mapEpoch,
	}
	if op.Split {
		op.Boundary = &tr.cuts[0]
	}
	for _, p := range tr.parents {
		op.RetiredIDs = append(op.RetiredIDs, p.id)
	}
	for j := 0; j <= len(tr.cuts); j++ {
		op.NewIDs = append(op.NewIDs, firstID+uint64(j))
	}
	tr.op = op
	if t.metaLog != nil {
		if _, aerr := t.metaLog.Append(wal.RecReshardBegin, wal.EncodeReshardPayload(op)); aerr != nil {
			return nil, aerr
		}
		if serr := t.metaLog.Sync(); serr != nil {
			return nil, serr
		}
		tr.begun = true
	}

	// A transition-created shard is streamed from the pinned parent views
	// with its WAL seeded in the same pass, and published at a provisional
	// version 0 — invisible until the barrier republishes it at its final
	// version.
	buildStart := time.Now()
	for j, id := range op.NewIDs {
		var lo, hi []byte
		if j > 0 {
			lo = tr.cuts[j-1].KeyBytes()
		}
		if j < len(tr.cuts) {
			hi = tr.cuts[j].KeyBytes()
		}
		srcs := make([]vbtree.TupleSource, len(views))
		for i, v := range views {
			srcs[i] = v.Tuples(lo, hi).Next
		}
		child, cerr := s.newShard(t.sch, chainSources(srcs...), t.epoch, id, true)
		if cerr != nil {
			return nil, cerr
		}
		s.stats.reshardPagesMoved.Add(uint64(child.pool.Pager().NumPages() - 1))
		tr.children = append(tr.children, child)
	}
	s.stats.reshardBuildNanos.Add(uint64(time.Since(buildStart)))
	return tr, nil
}

// resolveBoundary picks the split key: the caller's explicit boundary
// (validated strictly inside the shard's range), the shard's observed
// load median when the sketch is warm and valid, or the key-count
// median as the fallback.
func (s *Server) resolveBoundary(t *table, part *partition, idx int, parent *shard, v *vbtree.View, explicit *schema.Datum) (schema.Datum, error) {
	inRange := func(b schema.Datum) bool {
		if idx > 0 && b.Compare(part.boundaries[idx-1]) <= 0 {
			return false
		}
		if idx < len(part.boundaries) && b.Compare(part.boundaries[idx]) >= 0 {
			return false
		}
		return true
	}
	if explicit != nil {
		if !inRange(*explicit) {
			return schema.Datum{}, &wire.WireError{Code: wire.CodeBadRequest, Table: t.sch.Table,
				Msg: fmt.Sprintf("central: split boundary %v not inside shard %d's range", *explicit, idx)}
		}
		return *explicit, nil
	}
	n, err := v.KeyCount()
	if err != nil {
		return schema.Datum{}, err
	}
	if n < 2 {
		return schema.Datum{}, &wire.WireError{Code: wire.CodeBadRequest, Table: t.sch.Table,
			Msg: fmt.Sprintf("central: shard %d has %d tuples, too few for a median split", idx, n)}
	}
	// Load median first: cut where the traffic concentrates, provided it
	// leaves both children non-empty (at least one key on each side).
	if m, ok := parent.sketch.median(); ok && inRange(m) {
		first, ferr := v.TupleAt(0)
		last, lerr := v.TupleAt(n - 1)
		if ferr == nil && lerr == nil &&
			first.Key(t.sch).Compare(m) < 0 && last.Key(t.sch).Compare(m) >= 0 {
			return m, nil
		}
	}
	mid, err := v.TupleAt(n / 2)
	if err != nil {
		return schema.Datum{}, err
	}
	b := mid.Key(t.sch)
	if !inRange(b) {
		return b, &wire.WireError{Code: wire.CodeBadRequest, Table: t.sch.Table,
			Msg: fmt.Sprintf("central: split boundary %v not inside shard %d's range", b, idx)}
	}
	return b, nil
}

// chainSources concatenates tuple sources (adjacent ascending ranges,
// so the chain stays key-ordered — a child's build input over its
// parents in partition order).
func chainSources(srcs ...vbtree.TupleSource) vbtree.TupleSource {
	i := 0
	return func(limit int) ([]schema.Tuple, error) {
		for i < len(srcs) {
			out, err := srcs[i](limit)
			if err != nil {
				return nil, err
			}
			if len(out) > 0 {
				return out, nil
			}
			i++
		}
		return nil, nil
	}
}

// preCatchUp replays the delta tail into the children outside any lock
// until it fits DefaultReshardTailBound (or the round budget runs out),
// so the barrier's in-lock replay is O(bound).
func (s *Server) preCatchUp(tr *preparedTransition) error {
	for round := 0; round < maxCatchupRounds && tr.tail.size() > DefaultReshardTailBound; round++ {
		n, err := s.replayTail(tr, tr.tail.drain())
		if err != nil {
			return err
		}
		s.stats.reshardTailPrereplayed.Add(uint64(n))
		s.stats.reshardCatchupRounds.Add(1)
	}
	return nil
}

// replayTail applies recorded parent updates to the children in commit
// order: consecutive insert runs coalesce into one InsertBatch per
// child, routed by the cuts (a key equal to a cut belongs to the child
// on its right); deletes apply to every child (their ranges may
// straddle a cut). Each replayed op is appended to the child WALs
// (synced once, at the barrier). Returns how many tail entries were
// replayed.
func (s *Server) replayTail(tr *preparedTransition, ops []tailOp) (int, error) {
	if len(ops) == 0 {
		return 0, nil
	}
	t := tr.t
	total := 0
	var run []schema.Tuple
	flush := func() error {
		if len(run) == 0 {
			return nil
		}
		groups := make([][]schema.Tuple, len(tr.children))
		for _, tup := range run {
			key := tup.Key(t.sch)
			ci := sort.Search(len(tr.cuts), func(k int) bool { return key.Compare(tr.cuts[k]) < 0 })
			groups[ci] = append(groups[ci], tup)
		}
		for ci, group := range groups {
			if len(group) == 0 {
				continue
			}
			child := tr.children[ci]
			if child.log != nil {
				if _, err := child.log.Append(wal.RecBatch, wal.EncodeBatchPayload(group)); err != nil {
					return err
				}
			}
			_, opErrs, err := child.tree.InsertBatch(group)
			if err != nil {
				return err
			}
			// The parent applied every recorded tuple, and the child is
			// the parent's range restriction at the same logical point —
			// a per-op failure here means the histories diverged.
			for _, oe := range opErrs {
				if oe != nil {
					return fmt.Errorf("central: reshard tail replay diverged: %w", oe)
				}
			}
		}
		total += len(run)
		run = nil
		return nil
	}
	for _, op := range ops {
		if !op.del {
			run = append(run, op.tuples...)
			continue
		}
		if err := flush(); err != nil {
			return total, err
		}
		for _, child := range tr.children {
			if child.log != nil {
				if _, err := child.log.Append(wal.RecDelete, wal.EncodeDeletePayload(op.lo, op.hi)); err != nil {
					return total, err
				}
			}
			if _, err := child.tree.DeleteRange(op.lo, op.hi); err != nil {
				return total, err
			}
		}
		total++
	}
	if err := flush(); err != nil {
		return total, err
	}
	return total, nil
}

// transitionStartVersion picks the version new shards are born at: one
// above the current map version. Every commit round bumps the map
// version once and each participating shard's version once, so
// shardVersion <= mapVersion always holds — the newborn version is
// therefore strictly above every version any shard of this table has
// ever published. (What keeps a replica of one shard from being fed
// another's history is the stable ID replication addresses by, not this
// ordering — see shardByID.)
func (t *table) transitionStartVersion() uint64 {
	t.commitMu.Lock()
	defer t.commitMu.Unlock()
	return t.mapVersion + 1
}

// publishChild seats one transition child at a version: publish a
// snapshot carrying the pages dirtied since the last publish.
func (s *Server) publishChild(t *table, c *shard, version uint64) error {
	return s.publishShard(c, version, t.epoch, c.pool.DrainJournal())
}

// finishReshard is phase 2, the barrier: under the partition write lock
// — with writers excluded and the tail frozen — replay the remaining
// tail, seat the children at their final version, splice the new
// partition generation, WAL the RecReshard and swap. The lock is held
// for O(tail) and no signature — never O(shard pages):
// the children's snapshots are pre-published at the predicted final
// version before the lock, so the usual barrier skips the republish
// entirely.
func (s *Server) finishReshard(tr *preparedTransition) (*wire.ReshardResponse, error) {
	t := tr.t
	// Optimistic seat, still outside the lock: publish each child (with
	// the catch-up rounds' dirt) at the version the barrier will assign
	// if no commit sneaks in between, and sync their seeded WALs. The
	// children are invisible until the swap, so a missed prediction
	// wastes nothing but the republish below.
	predicted := t.transitionStartVersion()
	for _, c := range tr.children {
		if err := s.publishChild(t, c, predicted); err != nil {
			s.abortTransition(tr)
			return nil, err
		}
		if c.log != nil {
			if err := c.log.Sync(); err != nil {
				s.abortTransition(tr)
				return nil, err
			}
		}
	}

	t.partMu.Lock()
	barrierStart := time.Now()
	fail := func(err error) (*wire.ReshardResponse, error) {
		t.partMu.Unlock()
		s.abortTransition(tr)
		return nil, err
	}
	if t.part.Load() != tr.part {
		// The transition was orphaned in the barrier queue past another
		// committed transition (its dispatcher gave up waiting); its
		// pinned generation is gone, the built children are garbage.
		return fail(&wire.WireError{Code: wire.CodeBadRequest, Table: t.sch.Table,
			Msg: "central: partition changed while the transition was queued"})
	}

	ops := tr.tail.drain()
	replayed, err := s.replayTail(tr, ops)
	if err != nil {
		return fail(err)
	}
	s.stats.reshardTailReplayed.Add(uint64(replayed))
	tr.uninstallTails()

	final := t.transitionStartVersion()
	for _, c := range tr.children {
		c.version = final
		if final == predicted && replayed == 0 {
			// The optimistic snapshot is exact — nothing committed between
			// the prediction and the lock, and the tail was already dry.
			continue
		}
		if perr := s.publishChild(t, c, final); perr != nil {
			return fail(perr)
		}
		if c.log != nil {
			if serr := c.log.Sync(); serr != nil {
				return fail(serr)
			}
		}
	}

	// Inherit the detector's smoothed load, shared evenly, so a
	// just-carved shard is not immediately re-split (or re-merged) on
	// stale history.
	t.detMu.Lock()
	load := 0.0
	for _, p := range tr.parents {
		load += p.ewma
	}
	for _, c := range tr.children {
		c.ewma = load / float64(len(tr.children))
	}
	t.detMu.Unlock()

	part, idx := tr.part, tr.idx
	next := &partition{
		boundaries:  slices.Replace(slices.Clone(part.boundaries), idx, idx+len(tr.parents)-1, tr.cuts...),
		shards:      slices.Replace(slices.Clone(part.shards), idx, idx+len(tr.parents), tr.children...),
		mapEpoch:    part.mapEpoch + 1,
		parentEpoch: part.mapEpoch,
	}

	if err := s.commitTransition(t, next, tr.op, tr.parents...); err != nil {
		// The RecReshard record's durability is ambiguous here — do NOT
		// write an abort record over it; surface the error and leave the
		// parent generation authoritative.
		t.partMu.Unlock()
		return nil, err
	}
	s.maybeCheckpointMeta(t, next)
	if tr.op.Split {
		s.stats.splits.Add(1)
	} else {
		s.stats.merges.Add(1)
	}
	s.stats.reshardResigns.Add(uint64(len(tr.children)))
	s.stats.reshardBarrierNanos.Add(uint64(time.Since(barrierStart)))
	t.partMu.Unlock()
	return &wire.ReshardResponse{MapEpoch: next.mapEpoch, NumShards: uint32(len(next.shards))}, nil
}

// abortTransition rolls back a transition that will not commit: detach
// the tails (parents resume as the sole authority), mark the begun
// record aborted in the meta log, and close the children's logs.
func (s *Server) abortTransition(tr *preparedTransition) {
	tr.uninstallTails()
	t := tr.t
	if tr.begun && t.metaLog != nil && tr.op != nil {
		// Best-effort: an unmatched Begin is treated exactly like an
		// explicit Abort on recovery, so a failed append only loses the
		// tidier record.
		if _, err := t.metaLog.Append(wal.RecReshardAbort, wal.EncodeReshardPayload(tr.op)); err == nil {
			_ = t.metaLog.Sync()
		}
	}
	for _, c := range tr.children {
		if c != nil && c.log != nil {
			_ = c.log.Close()
			c.log = nil
		}
	}
}

// commitTransition makes a built transition durable and visible: the
// typed RecReshard record is WAL-logged and synced first, then — under
// commitMu, in one step — the map version bumps and both the new
// epoch's map (unsigned until first shipped) and the partition pointer
// swap. The
// retired shards' logs are closed (their history lives on in the
// carved shards' seed batches).
func (s *Server) commitTransition(t *table, next *partition, op *wal.ReshardOp, retired ...*shard) error {
	if t.metaLog != nil {
		if _, err := t.metaLog.Append(wal.RecReshard, wal.EncodeReshardPayload(op)); err != nil {
			return err
		}
		if err := t.metaLog.Sync(); err != nil {
			return err
		}
	}
	t.commitMu.Lock()
	t.mapVersion++
	// No shard locks are needed building the map: the caller holds partMu
	// exclusively, so no shard can commit concurrently.
	if err := storeMap(t, s.mapOf(t, next, t.mapVersion, false)); err != nil {
		t.commitMu.Unlock()
		return err
	}
	t.part.Store(next)
	t.commitMu.Unlock()
	for _, sh := range retired {
		if sh.log != nil {
			// Writers are excluded by partMu and snapshot readers never
			// touch the log, so the retired logs are quiescent.
			if err := sh.log.Close(); err != nil {
				return err
			}
			sh.log = nil
		}
	}
	return nil
}

// maybeCheckpointMeta writes a partition checkpoint into the meta log
// after every Options.ReshardCheckpointEvery committed transitions, so
// replaying a long split/merge history starts from the checkpointed
// state instead of the table's first transition. Best-effort: a failed
// append leaves the counter unreset and the next transition retries.
// The caller holds partMu (which guards transitionsSinceCkpt and
// nextShardID).
func (s *Server) maybeCheckpointMeta(t *table, next *partition) {
	every := s.opts.ReshardCheckpointEvery
	if every <= 0 || t.metaLog == nil {
		return
	}
	t.transitionsSinceCkpt++
	if t.transitionsSinceCkpt < every {
		return
	}
	cp := &wal.PartitionCheckpoint{
		MapEpoch:    next.mapEpoch,
		NextShardID: t.nextShardID,
		Boundaries:  append([]schema.Datum(nil), next.boundaries...),
	}
	for _, sh := range next.shards {
		cp.ShardIDs = append(cp.ShardIDs, sh.id)
	}
	if _, err := t.metaLog.Append(wal.RecCheckpoint, wal.EncodePartitionCheckpoint(cp)); err != nil {
		return
	}
	if err := t.metaLog.Sync(); err != nil {
		return
	}
	t.transitionsSinceCkpt = 0
}

// AutoReshardTick runs one detector pass over a table: it folds the
// per-shard ingest counters accumulated since the last tick into each
// shard's EWMA, then splits the hottest shard (load-median boundary
// when its sketch is warm) if its load share exceeds SplitFraction, or
// merges the coldest adjacent pair if their combined share falls below
// MergeFraction. Returns the committed transition, or nil if the
// partition was left alone. Safe to drive manually when no background
// interval is configured.
func (s *Server) AutoReshardTick(ctx context.Context, tableName string) (*wire.ReshardResponse, error) {
	opts := s.opts.AutoReshard
	if opts == nil {
		return nil, nil
	}
	t, err := s.table(tableName)
	if err != nil {
		return nil, err
	}
	splitFraction, mergeFraction, maxShards := 0.6, 0.05, 64
	if opts.SplitFraction != 0 {
		splitFraction = opts.SplitFraction
	}
	if opts.MergeFraction != 0 {
		mergeFraction = opts.MergeFraction
	}
	if opts.MaxShards > 0 {
		maxShards = opts.MaxShards
	}
	part := t.part.Load()

	t.detMu.Lock()
	total := 0.0
	for _, sh := range part.shards {
		load := float64(sh.ingestLoad.Swap(0))
		sh.ewma = detectorAlpha*load + (1-detectorAlpha)*sh.ewma
		total += sh.ewma
	}
	split, merge := -1, -1
	if total > 0 {
		hotIdx, hot := 0, part.shards[0].ewma
		for i, sh := range part.shards[1:] {
			if sh.ewma > hot {
				hotIdx, hot = i+1, sh.ewma
			}
		}
		if hot/total > splitFraction && len(part.shards) < maxShards {
			split = hotIdx
		} else if len(part.shards) >= 2 {
			coldIdx, cold := -1, 0.0
			for i := 0; i+1 < len(part.shards); i++ {
				pair := part.shards[i].ewma + part.shards[i+1].ewma
				if coldIdx < 0 || pair < cold {
					coldIdx, cold = i, pair
				}
			}
			if coldIdx >= 0 && cold/total < mergeFraction {
				merge = coldIdx
			}
		}
	}
	t.detMu.Unlock()

	// Act outside detMu: the transition paths take partMu then detMu.
	switch {
	case split >= 0:
		return s.SplitShard(ctx, tableName, uint32(split), nil)
	case merge >= 0:
		return s.MergeShards(ctx, tableName, uint32(merge))
	}
	return nil, nil
}

// autoReshardLoop drives the detector for every table at the configured
// interval until the server closes. Detector errors are deliberately
// dropped: a failed automatic transition (e.g. a one-tuple shard that
// cannot median-split) must not stop the loop, and the manual admin
// path surfaces the same errors to an operator.
func (s *Server) autoReshardLoop() {
	ticker := time.NewTicker(s.opts.AutoReshard.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-ticker.C:
		}
		for _, name := range s.Tables() {
			_, _ = s.AutoReshardTick(s.baseCtx, name)
		}
	}
}
