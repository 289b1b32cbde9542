// Package central implements the trusted central DBMS of the paper's
// Figure 2. It owns the private signing key, builds and maintains the
// VB-trees over the base tables (and over materialized join views),
// executes insert/delete transactions with write-ahead logging, and
// serves snapshots ("DB + VB-trees") to edge servers plus its public key
// to clients over an authenticated channel — the stand-in for the
// paper's PKI.
//
// Tables are range-partitioned by primary key into Options.Shards
// independent VB-tree shards, each with its own signed root, buffer
// pool, heap, WAL and delta changelog. A signed shard map
// (internal/shardmap) binds the shards back into one verifiable
// relation: every commit publishes a new one, and clients verify it
// before trusting any per-shard answer. Because each shard root is
// independent, insert batches that land on different shards commit in
// parallel.
//
// A signature exists so that what is shipped can be checked, so the
// server signs what it ships, not what it commits: a map version is
// signed the first time any replica pulls it, and so — a commit signs
// nothing — is a shard version's root (shipState). Every signature is
// minted once however many replicas are shipped it, and never for a
// version no replica asks for.
//
// Every committed update additionally publishes an immutable snapshot of
// the shard's page space (the same storage.PageStore mechanism the edges
// use), so edge snapshot pulls and delta serves read pinned
// versions instead of contending with update batches for the shard lock.
package central

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"edgeauth/internal/digest"
	"edgeauth/internal/lock"
	"edgeauth/internal/query"
	"edgeauth/internal/rpc"
	"edgeauth/internal/schema"
	"edgeauth/internal/shardmap"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/wal"
	"edgeauth/internal/wire"
)

// Options configures a Server.
type Options struct {
	// KeyBits sizes the RSA signing key; 0 selects sig.DefaultBits.
	// Ignored for SchemeEd25519.
	KeyBits int
	// Scheme selects the signature scheme for the generated signing key,
	// which signs one root per shard version: SchemeEd25519 (the zero
	// value's choice, a detached Ed25519 signature) or SchemeRSAMerkle
	// (an RSA signature with message recovery). Ignored by
	// NewServerWithKey, where the key carries its own scheme.
	Scheme sig.Scheme
	// PageSize for table storage; 0 selects storage.DefaultPageSize.
	PageSize int
	// WALDir, when non-empty, enables write-ahead logging of updates (one
	// log per shard) in that directory.
	WALDir string
	// DeltaRetention bounds the per-shard changelog used to serve
	// incremental updates to edge servers: the dirtied-page sets of the
	// most recent DeltaRetention committed updates are retained. Edges
	// whose replica version has fallen out of the window are told to pull
	// a full snapshot. 0 selects DefaultDeltaRetention; a negative value
	// is refused.
	DeltaRetention int
	// IdleTimeout disconnects a peer that sends no complete request
	// within the window, so a hung or slowloris connection cannot pin a
	// server goroutine forever. 0 selects rpc.DefaultIdleTimeout;
	// negative disables the deadline.
	IdleTimeout time.Duration
	// MaxBatch bounds one group-committed round of the coalescing write
	// front door, in tuples: concurrent insert requests for a table are
	// committed together, up to MaxBatch tuples per round (a larger
	// request commits in a round of its own). 0 selects DefaultMaxBatch;
	// a negative value is refused.
	MaxBatch int
	// MaxDelay is how long a group-commit leader waits for stragglers
	// before committing its round. 0 (the default) commits immediately
	// with whatever has queued — coalescing then happens only under
	// genuine concurrency and adds no idle latency.
	MaxDelay time.Duration
	// Shards is how many range partitions each table is built with.
	// 0 or 1 selects a single shard.
	Shards int
	// ShardSplit picks the boundary-selection strategy for the initial
	// partition: shardmap.SplitByCount (default) balances build tuples
	// per shard, shardmap.SplitByKeySpan divides the key interval
	// evenly.
	ShardSplit shardmap.Strategy
	// AutoReshard, when non-nil, arms the hot-shard detector: an EWMA
	// over per-shard ingest counters that splits a shard carrying
	// a disproportionate load share and merges cold adjacent pairs,
	// online, under live traffic (see reshard.go). With a positive
	// Interval a background loop ticks every table; with Interval zero
	// the caller drives AutoReshardTick manually.
	AutoReshard *AutoReshardOptions
	// ReshardCheckpointEvery, when positive, writes a partition
	// checkpoint into the table's meta log after every N committed
	// transitions, so replaying a long split/merge history is truncated
	// to the checkpointed state plus at most N records. 0 disables
	// checkpointing.
	ReshardCheckpointEvery int
}

// DefaultDeltaRetention is the changelog depth kept per shard when
// Options.DeltaRetention is zero.
const DefaultDeltaRetention = 512

// Server is the central DBMS.
type Server struct {
	mu     sync.RWMutex
	opts   Options
	key    *sig.PrivateKey
	acc    *digest.Accumulator
	tables map[string]*table

	stats serverCounters

	lnMu      sync.Mutex
	listeners []net.Listener
	conns     rpc.ConnSet
	wg        sync.WaitGroup
	closed    bool

	// baseCtx parents every connection's context; Close cancels it so
	// in-flight handlers across all connections stop early.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	closeOnce  sync.Once
	closeErr   error
}

// table is one range-partitioned relation: N shard trees plus the
// signed map binding them. The partition itself (boundaries + shard
// set) is no longer fixed at creation: online splits and merges swap in
// a new generation under partMu.
type table struct {
	sch   *schema.Schema
	epoch uint64 // random per incarnation, shared by all shards

	// partMu orders writers against partition transitions: every apply
	// path (Insert, DeleteRange, ApplyBatch) holds the read lock from
	// shard routing through map republish, so a split/merge (write lock)
	// never swaps the shard set out from under a half-applied batch.
	// Read-only paths (snapshots, deltas) skip the lock and
	// run against whatever partition pointer they load — they read
	// pinned snapshots, so a concurrent transition only means they
	// describe the generation they loaded. Lock order: partMu before
	// any shard.mu, shard locks released before commitMu.
	partMu sync.RWMutex
	part   atomic.Pointer[partition]

	// nextShardID hands out stable shard identities (never reused within
	// the incarnation). Guarded by partMu (writers of new shards hold
	// the write lock).
	nextShardID uint64

	// metaLog records partition transitions (RecReshard) when WAL is
	// enabled; per-shard logs carry only tuple history, so without this
	// record a restart could not know which shard logs compose the
	// table. Guarded by partMu's write lock (transitions are serialized).
	metaLog *wal.Log

	// commitMu serializes shard-map version bumps and republishes. It is
	// never held while taking a shard's write lock (commits release
	// their shard locks before republishing the map), so the two lock
	// orders cannot deadlock.
	commitMu   sync.Mutex
	mapVersion uint64 // guarded by commitMu
	// smap is the current map, unsigned: its contents are fixed under
	// commitMu when it is stored, and SignedShardMap signs it when a
	// replica first asks for it.
	smap atomic.Pointer[shardmap.Map]
	// mapSig memoizes the last map signed. Its lock is its own, so no
	// signature is made under commitMu or any shard lock.
	mapSig struct {
		mu     sync.Mutex
		from   *shardmap.Map // the unsigned map it was minted from
		signed *shardmap.Signed
	}

	// gc coalesces concurrent single-op dispatches into group commits.
	gc groupCommitter

	// detMu guards the hot-shard detector's EWMA state (shard.ewma).
	detMu sync.Mutex

	// reshardMu serializes whole partition transitions (pin, unlocked
	// child builds, catch-up, barrier) so at most one is in flight per
	// table. It is never held while holding partMu or any shard lock in
	// a way that could invert orders: prepare takes shard locks only
	// briefly to pin, and the barrier body takes partMu on its own.
	reshardMu sync.Mutex

	// transitionsSinceCkpt counts committed transitions since the last
	// meta-log partition checkpoint. Guarded by partMu's write lock
	// (only the barrier body, which holds it, touches the counter).
	transitionsSinceCkpt int
}

// partition is one immutable generation of a table's shard layout,
// published by atomic pointer swap. mapEpoch/parentEpoch mirror the
// signed map's generation link.
type partition struct {
	boundaries  []schema.Datum // len = len(shards)-1
	shards      []*shard
	mapEpoch    uint64
	parentEpoch uint64
}

// shardFor routes a key to its shard index within this partition.
func (p *partition) shardFor(key schema.Datum) int {
	m := shardmap.Map{Boundaries: p.boundaries}
	return m.ShardFor(key)
}

// shardsForRange returns the inclusive shard index interval a key range
// intersects within this partition.
func (p *partition) shardsForRange(lo, hi *schema.Datum) (int, int) {
	m := shardmap.Map{Boundaries: p.boundaries, Shards: make([]shardmap.ShardState, len(p.shards))}
	return m.ShardsForRange(lo, hi)
}

// shard is one independently-signed VB-tree over a key range.
type shard struct {
	// id is the shard's stable identity (see shardmap.ShardState.ID):
	// partition indices shift across splits/merges, IDs never do.
	id uint64

	mu      sync.RWMutex
	tree    *vbtree.Tree
	pool    *storage.BufferPool
	heap    *storage.HeapFile
	log     *wal.Log
	version uint64 // bumped on every committed update to this shard

	// ingestLoad counts tuples applied since the hot-shard detector's
	// last tick; ewma is the detector's smoothed per-tick rate (guarded
	// by table.detMu).
	ingestLoad atomic.Uint64
	ewma       float64

	// sketch samples the keys this shard's load actually touches, so a
	// detector-driven split can place its boundary at the load median
	// instead of the key-count median. It has its own leaf mutex.
	sketch loadSketch

	// tail, when non-nil, is the delta tail of an in-flight incremental
	// transition this shard is a parent of: every update committed after
	// the transition pinned its snapshot is recorded (under mu, after
	// the tree apply succeeds) so the barrier can catch the children up
	// without rescanning the shard. Installed and removed under mu.
	tail *reshardTail

	// anchor memoizes the root signature of the last published version
	// shipped (shipState). Its lock is its own, so
	// no signature is made under mu.
	anchor struct {
		mu         sync.Mutex
		state      *vbtree.TableState // the published version it signs
		keyVersion uint32             // the key version it was minted under
		sig        sig.Signature
	}

	// store republishes the shard as immutable snapshots, one per
	// committed version: replication reads pin a version and proceed
	// without the shard lock.
	store *storage.PageStore

	// changes is the retained changelog: one entry per committed update,
	// oldest first, with contiguous versions ending at version. pending
	// accumulates journaled pages that have not yet been attributed to a
	// version bump.
	changes []changeEntry
	pending []storage.PageID
}

// snapState pins the shard's current published snapshot and decodes its
// vbtree.TableState metadata. Callers must Release the snapshot.
func (sh *shard) snapState() (*storage.Snapshot, *vbtree.TableState, error) {
	snap := sh.store.Acquire()
	st, ok := snap.Meta().(*vbtree.TableState)
	if !ok {
		snap.Release()
		return nil, nil, errors.New("central: shard has no published version")
	}
	return snap, st, nil
}

// changeEntry records what one committed update touched: the pages it
// dirtied (tree nodes, heap pages, overflow pages) and the WAL LSN it was
// logged under (0 when logging is disabled).
type changeEntry struct {
	version uint64
	lsn     uint64
	pages   []storage.PageID
}

// NewServer creates a central server with a fresh signing key.
func NewServer(opts Options) (*Server, error) {
	if opts.KeyBits == 0 {
		opts.KeyBits = sig.DefaultBits
	}
	if opts.Scheme == 0 {
		opts.Scheme = sig.SchemeEd25519
	}
	key, err := sig.Generate(opts.Scheme, opts.KeyBits)
	if err != nil {
		return nil, err
	}
	return NewServerWithKey(opts, key)
}

// NewServerWithKey creates a central server around an existing key (used
// by tests and tools that pre-generate keys).
func NewServerWithKey(opts Options, key *sig.PrivateKey) (*Server, error) {
	if opts.PageSize == 0 {
		opts.PageSize = storage.DefaultPageSize
	}
	if opts.Shards < 0 {
		return nil, fmt.Errorf("central: negative shard count %d", opts.Shards)
	}
	if opts.MaxBatch < 0 {
		return nil, fmt.Errorf("central: negative Options.MaxBatch %d", opts.MaxBatch)
	}
	if opts.DeltaRetention < 0 {
		return nil, fmt.Errorf("central: negative Options.DeltaRetention %d", opts.DeltaRetention)
	}
	if _, err := shardmap.ParseStrategy(string(opts.ShardSplit)); err != nil {
		return nil, err
	}
	s := &Server{
		opts:   opts,
		key:    key,
		acc:    digest.MustNew(digest.DefaultParams()),
		tables: make(map[string]*table),
	}
	// The server's root context: construction has no caller context, and
	// Close cancels it to stop handlers on every connection.
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background()) //vetauth:ignore ctxflow server root context, cancelled by Close
	// Route the key's sign-op count into the server's stats snapshot.
	key.SetCounters(&s.stats.signOps)
	if opts.AutoReshard != nil && opts.AutoReshard.Interval > 0 {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.autoReshardLoop()
		}()
	}
	return s, nil
}

// PublicKey returns the server's public key.
func (s *Server) PublicKey() *sig.PublicKey { return s.key.Public() }

// Accumulator returns the digest accumulator.
func (s *Server) Accumulator() *digest.Accumulator { return s.acc }

// SetKeyValidity stamps the signing key's version and validity window
// (paper §3.4 delayed-broadcast key rotation).
func (s *Server) SetKeyValidity(version uint32, notBefore, notAfter int64) {
	s.key.SetValidity(version, notBefore, notAfter)
}

// shardCount resolves Options.Shards.
func (s *Server) shardCount() int {
	if s.opts.Shards <= 1 {
		return 1
	}
	return s.opts.Shards
}

// AddTable builds VB-tree shards over tuples (sorted by key) and
// registers the table. With Options.Shards > 1 the tuples are
// range-partitioned first and each shard gets an independent tree with
// its own signed root; the signed shard map binding them is published
// before the table becomes visible.
func (s *Server) AddTable(sch *schema.Schema, tuples []schema.Tuple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.tables[sch.Table]; exists {
		return fmt.Errorf("central: table %q already exists", sch.Table)
	}
	boundaries, err := shardmap.Split(sch, tuples, s.shardCount(), s.opts.ShardSplit)
	if err != nil {
		return err
	}
	groups := shardmap.Partition(sch, tuples, boundaries)
	epoch, err := newEpoch()
	if err != nil {
		return err
	}
	t := &table{sch: sch, epoch: epoch}
	part := &partition{boundaries: boundaries, mapEpoch: 1}
	for i, group := range groups {
		sh, err := s.newShard(sch, vbtree.SliceSource(group), epoch, uint64(i+1), false)
		if err != nil {
			return err
		}
		part.shards = append(part.shards, sh)
	}
	t.nextShardID = uint64(len(part.shards) + 1)
	t.part.Store(part)
	if s.opts.WALDir != "" {
		ml, err := wal.Create(filepath.Join(s.opts.WALDir, sch.Table+".meta.wal"))
		if err != nil {
			return err
		}
		t.metaLog = ml
	}
	if err := storeMap(t, s.mapOf(t, part, t.mapVersion, false)); err != nil {
		return err
	}
	s.tables[sch.Table] = t
	return nil
}

// newShard is the one shard constructor: it streams src — a build-time
// tuple group or a pinned parent view — through the hashing/build pool
// into a fresh pager, publishes the result as the shard's baseline
// snapshot at version 0 and opens its WAL under the stable ID id. With
// seedWAL the log is seeded in the same pass, one record per build chunk,
// and synced, so restart replay reconstructs a transition-created shard
// without the retired parent's log; a build-time shard's baseline is the
// table the caller loaded, and its log starts empty.
func (s *Server) newShard(sch *schema.Schema, src vbtree.TupleSource, epoch, id uint64, seedWAL bool) (*shard, error) {
	mem, err := storage.NewMemPager(s.opts.PageSize)
	if err != nil {
		return nil, err
	}
	pool, err := storage.NewBufferPool(mem, 1<<20) // generous: pages stay resident
	if err != nil {
		return nil, err
	}
	heap, err := storage.NewHeapFile(pool)
	if err != nil {
		return nil, err
	}
	var log *wal.Log
	if s.opts.WALDir != "" {
		if log, err = wal.Create(filepath.Join(s.opts.WALDir, walName(sch.Table, id))); err != nil {
			return nil, err
		}
	}
	fail := func(err error) (*shard, error) {
		if log != nil {
			log.Close()
		}
		return nil, err
	}
	onChunk := func(tuples []schema.Tuple) error {
		if !seedWAL || log == nil || len(tuples) == 0 {
			return nil
		}
		_, err := log.Append(wal.RecBatch, wal.EncodeBatchPayload(tuples))
		return err
	}
	cfg := vbtree.Config{
		Pool:   pool,
		Heap:   heap,
		Schema: sch,
		Acc:    s.acc,
		Signer: s.key,
		Pub:    s.key.Public(),
		// Each shard gets its own lock manager: shards have independent
		// buffer pools whose page IDs overlap, so sharing one manager
		// under the table-wide lock space would make parallel shard
		// commits falsely contend (and falsely deadlock) on unrelated
		// pages that happen to share an ID.
		Locks: lock.NewManager(0),
	}
	tree, err := vbtree.BuildFromSource(cfg, 1.0, vbtree.DefaultBuildChunk, src, onChunk)
	if err != nil {
		return fail(err)
	}
	store, err := storage.NewPageStore(s.opts.PageSize)
	if err != nil {
		return fail(err)
	}
	sh := &shard{id: id, tree: tree, pool: pool, heap: heap, log: log, store: store}
	// Publish the built shard as its baseline snapshot: every page of the
	// pager becomes the read-path baseline.
	pager := pool.Pager()
	baseline := make([]storage.PageID, 0, pager.NumPages()-1)
	for id := 1; id < pager.NumPages(); id++ {
		baseline = append(baseline, storage.PageID(id))
	}
	if err := s.publishShard(sh, 0, epoch, baseline); err != nil {
		return fail(err)
	}
	// The build is the snapshot baseline; journal only the pages later
	// updates dirty.
	pool.EnableJournal()
	if seedWAL && log != nil {
		if err := log.Sync(); err != nil {
			return fail(err)
		}
	}
	return sh, nil
}

// walName names a shard's log by its stable ID — build-time and
// transition-created shards alike: a shard's index shifts under later
// transitions, its ID never does.
func walName(table string, id uint64) string {
	return fmt.Sprintf("%s.shard%d.wal", table, id)
}

// newEpoch draws a random nonzero table-incarnation id. Replica versions
// are only meaningful within one epoch: a central server that rebuilds a
// table (e.g. after a restart) gets a fresh epoch, so stale edges are
// steered to a full snapshot instead of a delta from a divergent history.
func newEpoch() (uint64, error) {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			return 0, fmt.Errorf("central: generating table epoch: %w", err)
		}
		if e := binary.BigEndian.Uint64(b[:]); e != 0 {
			return e, nil
		}
	}
}

// retention resolves Options.DeltaRetention (validated non-negative at
// construction): 0 = default.
func (s *Server) retention() int {
	if s.opts.DeltaRetention == 0 {
		return DefaultDeltaRetention
	}
	return s.opts.DeltaRetention
}

// commitChange attributes the pages journaled since the last call to the
// just-committed version, trims the changelog to the retention window,
// and returns the committed page set. Callers hold sh.mu.
func (sh *shard) commitChange(version, lsn uint64, retention int) []storage.PageID {
	sh.pending = append(sh.pending, sh.pool.DrainJournal()...)
	entry := changeEntry{version: version, lsn: lsn, pages: sh.pending}
	sh.pending = nil
	sh.changes = append(sh.changes, entry)
	if over := len(sh.changes) - retention; over > 0 {
		sh.changes = append([]changeEntry(nil), sh.changes[over:]...)
	}
	return entry.pages
}

// publishShard copies the given (just-dirtied) pages out of the live
// buffer pool into a copy-on-write overlay and publishes the result as
// the shard's next immutable snapshot, carrying the tree anchor for the
// committed version: the tree's root digest — shipState signs it when a
// replica is first shipped the version. Callers hold sh.mu (or have
// exclusive access), which is what makes the copied pages a consistent
// cut, and is why nothing here may sign.
func (s *Server) publishShard(sh *shard, version, epoch uint64, pages []storage.PageID) error {
	ov := sh.store.Begin()
	defer ov.Abort() // no-op once published
	pager := sh.pool.Pager()
	for ov.NumPages() < pager.NumPages() {
		ov.Allocate()
	}
	for _, id := range pages {
		buf, err := sh.pool.View(id)
		if err != nil {
			return err
		}
		if err := ov.WritePage(id, buf); err != nil {
			return err
		}
	}
	ov.Publish(&vbtree.TableState{
		Root:       sh.tree.Root(),
		Height:     sh.tree.Height(),
		RootSig:    sig.Signature(sh.tree.RootDigest()),
		HeapPages:  sh.heap.Pages(),
		KeyVersion: s.key.Public().Version,
		Scheme:     s.key.Public().Scheme,
		Version:    version,
		Epoch:      epoch,
	})
	return nil
}

// commitShard finishes one shard's committed update: bumps the shard
// version, attributes journaled pages to the changelog and publishes the
// snapshot. Callers hold sh.mu. A publish failure does not undo the
// commit — the update is WAL-logged and the version bumped — it only
// means the published snapshot lags, so the pages are re-staged and the
// next successful publish carries them.
func (s *Server) commitShard(t *table, sh *shard, lsn uint64) error {
	sh.version++
	s.stats.commits.Add(1)
	pages := sh.commitChange(sh.version, lsn, s.retention())
	if err := s.publishShard(sh, sh.version, t.epoch, pages); err != nil {
		sh.pending = append(sh.pending, pages...)
		return fmt.Errorf("central: update committed but snapshot publish failed (will catch up on the next commit): %w", err)
	}
	return nil
}

// stashJournal collects journaled pages that did not result in a version
// bump (e.g. a delete matching no rows) so they are attributed to the
// next committed update instead of being lost. Callers hold sh.mu.
func (sh *shard) stashJournal() {
	sh.pending = append(sh.pending, sh.pool.DrainJournal()...)
}

// mapOf builds the unsigned map for one partition generation at the
// given map version; KeyVersion and SignedAt are stamped when it is
// signed. Callers either have exclusive access (AddTable, transitions
// under partMu) or take brief shard read locks via lockShards to make
// each (root digest, version) pair consistent.
func (s *Server) mapOf(t *table, p *partition, mapVersion uint64, lockShards bool) *shardmap.Map {
	m := &shardmap.Map{
		Table:       t.sch.Table,
		Epoch:       t.epoch,
		MapVersion:  mapVersion,
		MapEpoch:    p.mapEpoch,
		ParentEpoch: p.parentEpoch,
		Boundaries:  p.boundaries,
	}
	for _, sh := range p.shards {
		if lockShards {
			sh.mu.RLock()
		}
		m.Shards = append(m.Shards, shardmap.ShardState{
			RootDigest: sh.tree.RootDigest(),
			Version:    sh.version,
			ID:         sh.id,
		})
		if lockShards {
			sh.mu.RUnlock()
		}
	}
	return m
}

// storeMap makes m the table's current map, unsigned. Its contents are
// final from here on: the signature SignedShardMap makes later covers
// exactly what was stored. The caller holds commitMu or has exclusive
// access (AddTable).
func storeMap(t *table, m *shardmap.Map) error {
	if err := m.Validate(); err != nil {
		return err
	}
	t.smap.Store(m)
	return nil
}

// republishMap publishes the shard map after one or more shard commits.
// It must not be called while holding any shard write lock (commit paths
// release their shards first); the brief read locks make each
// (root digest, version) pair consistent. Callers on the write path hold
// partMu.RLock, so the partition cannot transition mid-republish.
func (s *Server) republishMap(t *table) error {
	t.commitMu.Lock()
	defer t.commitMu.Unlock()
	t.mapVersion++
	return storeMap(t, s.mapOf(t, t.part.Load(), t.mapVersion, true))
}

// SignedShardMap returns the table's current shard map, signed. The
// first call for a map version signs it, stamping the key version and
// time it is signed under; later calls, concurrent ones included, get
// that same signed map until the map or the key version changes.
func (s *Server) SignedShardMap(tableName string) (*shardmap.Signed, error) {
	t, err := s.table(tableName)
	if err != nil {
		return nil, err
	}
	ms := &t.mapSig
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m := t.smap.Load()
	if m == nil {
		return nil, errors.New("central: table has no shard map")
	}
	kv := s.key.Public().Version
	if ms.from != m || ms.signed.Map.KeyVersion != kv {
		stamped := *m
		stamped.KeyVersion, stamped.SignedAt = kv, time.Now().Unix()
		signed, err := shardmap.Sign(&stamped, s.key)
		if err != nil {
			return nil, err
		}
		ms.from, ms.signed = m, signed
	}
	return ms.signed, nil
}

// MaterializeJoin computes left ⋈ right on lcol = rcol and registers the
// result as a view table with its own VB-tree shards (the paper's join
// story).
func (s *Server) MaterializeJoin(viewName, left, right, lcol, rcol string) error {
	lt, err := s.table(left)
	if err != nil {
		return err
	}
	rt, err := s.table(right)
	if err != nil {
		return err
	}
	ltuples, err := scanTuples(lt)
	if err != nil {
		return err
	}
	rtuples, err := scanTuples(rt)
	if err != nil {
		return err
	}
	viewSch, viewTuples, err := query.MaterializeEquiJoin(viewName, lt.sch, rt.sch, ltuples, rtuples, lcol, rcol)
	if err != nil {
		return err
	}
	return s.AddTable(viewSch, viewTuples)
}

// scanTuples concatenates the shards' key-ordered scans; shards cover
// disjoint ascending ranges, so the concatenation is key-sorted.
func scanTuples(t *table) ([]schema.Tuple, error) {
	var out []schema.Tuple
	for _, sh := range t.part.Load().shards {
		tuples, err := scanShard(sh)
		if err != nil {
			return nil, err
		}
		out = append(out, tuples...)
	}
	return out, nil
}

// scanShard reads one shard's full key-ordered tuple set.
func scanShard(sh *shard) ([]schema.Tuple, error) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var out []schema.Tuple
	err := sh.tree.Read(false, func(v *vbtree.View) error {
		stored, err := v.ScanAll()
		for _, st := range stored {
			out = append(out, st.Tuple)
		}
		return err
	})
	return out, err
}

func (s *Server) table(name string) (*table, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
	if !ok {
		return nil, wire.UnknownTable("central", name)
	}
	return t, nil
}

// shard resolves one shard of a table against its current partition.
func (s *Server) shard(name string, idx uint32) (*table, *shard, error) {
	t, err := s.table(name)
	if err != nil {
		return nil, nil, err
	}
	part := t.part.Load()
	if int(idx) >= len(part.shards) {
		return nil, nil, &wire.WireError{Code: wire.CodeBadRequest, Table: name,
			Msg: fmt.Sprintf("central: table %q has %d shards, requested %d", name, len(part.shards), idx)}
	}
	return t, part.shards[idx], nil
}

// shardByID resolves one shard of a table's current partition by its
// stable ID — how replication names a shard (indices shift across
// splits and merges; see wire.ShardRef). An ID the partition no longer
// holds — retired by a transition since the requester fetched its map —
// answers the typed shard-moved refusal.
func (s *Server) shardByID(name string, id uint64) (*table, *shard, error) {
	t, err := s.table(name)
	if err != nil {
		return nil, nil, err
	}
	for _, sh := range t.part.Load().shards {
		if sh.id == id {
			return t, sh, nil
		}
	}
	return nil, nil, wire.ShardMoved(name, fmt.Sprintf("central: table %q holds no shard with ID %d", name, id))
}

// Tables lists registered tables in sorted order.
func (s *Server) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tables))
	for name := range s.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NumShards reports how many shards a table currently has.
func (s *Server) NumShards(name string) (int, error) {
	t, err := s.table(name)
	if err != nil {
		return 0, err
	}
	return len(t.part.Load().shards), nil
}

// Version returns a table's update version — the shard-map version,
// which bumps once per committed update to any shard. (For single-shard
// tables this matches the shard's own version.)
func (s *Server) Version(name string) (uint64, error) {
	t, err := s.table(name)
	if err != nil {
		return 0, err
	}
	m := t.smap.Load()
	if m == nil {
		return 0, errors.New("central: table has no shard map")
	}
	return m.MapVersion, nil
}

// TableEpoch returns a table's incarnation id.
func (s *Server) TableEpoch(name string) (uint64, error) {
	t, err := s.table(name)
	if err != nil {
		return 0, err
	}
	return t.epoch, nil
}

// Insert logs and applies one tuple insert: an ApplyBatch of one,
// returning its per-op error.
func (s *Server) Insert(tableName string, tup schema.Tuple) error {
	opErrs, err := s.ApplyBatch(tableName, []schema.Tuple{tup})
	if err != nil {
		return err
	}
	return opErrs[0]
}

// DeleteRange logs and applies a key-range delete across every shard the
// range intersects; returns the total count.
func (s *Server) DeleteRange(tableName string, lo, hi *schema.Datum) (int, error) {
	t, err := s.table(tableName)
	if err != nil {
		return 0, err
	}
	t.partMu.RLock()
	defer t.partMu.RUnlock()
	part := t.part.Load()
	first, last := part.shardsForRange(lo, hi)
	total := 0
	var firstErr error
	for i := first; i <= last; i++ {
		n, err := s.deleteShardRange(t, part.shards[i], lo, hi)
		total += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if total > 0 {
		s.stats.deletesApplied.Add(uint64(total))
		if err := s.republishMap(t); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}

func (s *Server) deleteShardRange(t *table, sh *shard, lo, hi *schema.Datum) (int, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var lsn uint64
	var err error
	if sh.log != nil {
		if lsn, err = sh.log.Append(wal.RecDelete, wal.EncodeDeletePayload(lo, hi)); err != nil {
			return 0, err
		}
		if err := sh.log.Sync(); err != nil {
			return 0, err
		}
	}
	n, err := sh.tree.DeleteRange(lo, hi)
	if err != nil {
		sh.stashJournal()
		return 0, err
	}
	if n > 0 && sh.tail != nil {
		sh.tail.recordDelete(lo, hi)
	}
	if n > 0 {
		if err := s.commitShard(t, sh, lsn); err != nil {
			// The delete itself committed (WAL-logged, version bumped);
			// report the real count so callers don't re-apply it.
			return n, err
		}
	} else {
		sh.stashJournal()
	}
	return n, nil
}

// shipState returns the tree anchor a replica of the published version st
// is shipped with. st holds the bare root digest, and the anchor shipped
// is a copy carrying the signature over it and the key version that
// signature was minted under — minted the first time any replica is
// shipped st, and reused for every replica after until the key version
// changes. The caller must not hold sh.mu.
func (s *Server) shipState(sh *shard, st *vbtree.TableState) (*vbtree.TableState, error) {
	a := &sh.anchor
	a.mu.Lock()
	defer a.mu.Unlock()
	kv := s.key.Public().Version
	if a.state != st || a.keyVersion != kv {
		rs, err := s.key.Sign(st.RootSig)
		if err != nil {
			return nil, err
		}
		a.state, a.keyVersion, a.sig = st, kv, rs
	}
	shipped := *st
	shipped.RootSig, shipped.KeyVersion = a.sig, a.keyVersion
	return &shipped, nil
}

// snapshotOf captures one shard's replica image.
func (s *Server) snapshotOf(t *table, sh *shard) (*wire.Snapshot, error) {
	pinned, st, err := sh.snapState()
	if err != nil {
		return nil, err
	}
	defer pinned.Release()
	if st, err = s.shipState(sh, st); err != nil {
		return nil, err
	}
	snap, err := wire.NewSnapshot(pinned, st, t.sch)
	if err != nil {
		return nil, err
	}
	s.stats.snapshotsServed.Add(1)
	return snap, nil
}

// ShardSnapshot captures the replica image of the shard at partition
// index idx.
func (s *Server) ShardSnapshot(tableName string, idx uint32) (*wire.Snapshot, error) {
	t, sh, err := s.shard(tableName, idx)
	if err != nil {
		return nil, err
	}
	return s.snapshotOf(t, sh)
}

// ShardSnapshotByID captures the replica image of the shard with stable
// ID id (the replication frames' addressing).
func (s *Server) ShardSnapshotByID(tableName string, id uint64) (*wire.Snapshot, error) {
	t, sh, err := s.shardByID(tableName, id)
	if err != nil {
		return nil, err
	}
	return s.snapshotOf(t, sh)
}

// appendDelta builds the incremental update that takes a shard replica at
// fromVersion to the shard's current version, appends its signed wire
// body to dst and returns it with the delta it encodes (whose PageData
// are views of that body). The shard's stable ID is bound into the signed
// Table field (wire.ShardRef), so the delta cannot be applied to any other
// shard's replica. The body is serialised once: every dirtied page goes
// from the pinned snapshot straight into its place in the body, and the
// signature is made over the bytes there (wire.Delta.AppendSigned).
func (s *Server) appendDelta(dst []byte, t *table, sh *shard, fromVersion, epoch uint64) ([]byte, *wire.Delta, error) {
	// Pin the version the delta will take the replica to; page content is
	// read from this immutable snapshot, so updates committing while the
	// delta is assembled cannot leak into it.
	pinned, st, err := sh.snapState()
	if err != nil {
		return nil, nil, err
	}
	defer pinned.Release()
	d := &wire.Delta{
		Table:       wire.ShardRef(t.sch.Table, sh.id),
		FromVersion: fromVersion,
		ToVersion:   st.Version,
		Epoch:       st.Epoch,
	}
	// A replica that descends from a different table incarnation (or claims
	// a future version) has a history that diverged from ours, so a delta
	// would silently corrupt it; so would one the changelog no longer
	// covers.
	covered := epoch == st.Epoch && fromVersion <= st.Version
	if covered {
		// Only the changelog needs the shard lock, and only briefly. Its
		// entries carry contiguous versions ending at sh.version, so coverage
		// is a simple window check.
		sh.mu.RLock()
		covered = fromVersion >= sh.version-uint64(len(sh.changes))
		if covered {
			inWindow := func(e *changeEntry) bool { return e.version > fromVersion && e.version <= st.Version }
			n := 0
			for i := range sh.changes {
				if e := &sh.changes[i]; inWindow(e) {
					n += len(e.pages)
				}
			}
			d.PageIDs = make([]storage.PageID, 0, n)
			for i := range sh.changes {
				if e := &sh.changes[i]; inWindow(e) {
					d.PageIDs = append(d.PageIDs, e.pages...)
				}
			}
		}
		sh.mu.RUnlock()
	}
	if !covered {
		d.SnapshotNeeded = true
	} else {
		if st, err = s.shipState(sh, st); err != nil {
			return nil, nil, err
		}
		slices.Sort(d.PageIDs)
		d.PageIDs = slices.Compact(d.PageIDs)
		d.Root = st.Root
		d.Height = uint32(st.Height)
		d.RootSig = st.RootSig
		d.HeapPages = st.HeapPages
		d.NumPages = uint32(pinned.NumPages())
		d.KeyVersion = st.KeyVersion
		d.Scheme = uint8(st.Scheme)
		s.stats.deltasServed.Add(1)
	}
	body, err := d.AppendSigned(dst, pinned, s.key)
	if err != nil {
		return nil, nil, err
	}
	return body, d, nil
}

// ShardDelta serves the incremental refresh of the shard at partition
// index idx.
func (s *Server) ShardDelta(tableName string, idx uint32, fromVersion, epoch uint64) (*wire.Delta, error) {
	t, sh, err := s.shard(tableName, idx)
	if err != nil {
		return nil, err
	}
	_, d, err := s.appendDelta(nil, t, sh, fromVersion, epoch)
	return d, err
}

// ShardDeltaByID serves the incremental refresh of the shard with stable
// ID id (the replication frames' addressing).
func (s *Server) ShardDeltaByID(tableName string, id, fromVersion, epoch uint64) (*wire.Delta, error) {
	t, sh, err := s.shardByID(tableName, id)
	if err != nil {
		return nil, err
	}
	_, d, err := s.appendDelta(nil, t, sh, fromVersion, epoch)
	return d, err
}

// LoggedOps replays a table's write-ahead logs (post-checkpoint) as typed
// operations — the logical history backing the page-level changelogs.
// Shard logs are concatenated in shard order. Requires Options.WALDir.
func (s *Server) LoggedOps(tableName string) ([]wal.Op, error) {
	t, err := s.table(tableName)
	if err != nil {
		return nil, err
	}
	var ops []wal.Op
	for _, sh := range t.part.Load().shards {
		if sh.log == nil {
			return nil, errors.New("central: write-ahead logging not enabled")
		}
		if err := sh.log.Sync(); err != nil {
			return nil, err
		}
		path := filepath.Join(s.opts.WALDir, walName(tableName, sh.id))
		if err := wal.ReplayOps(path, func(op wal.Op) error {
			ops = append(ops, op)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return ops, nil
}

// MetaCheckpoint returns the newest partition checkpoint in a table's
// meta log (nil if none has been written). A checkpoint truncates
// replay: ReshardHistory resumes from the state it captures instead of
// the table's first transition. Requires Options.WALDir.
func (s *Server) MetaCheckpoint(tableName string) (*wal.PartitionCheckpoint, error) {
	t, err := s.table(tableName)
	if err != nil {
		return nil, err
	}
	t.partMu.RLock()
	defer t.partMu.RUnlock()
	if t.metaLog == nil {
		return nil, errors.New("central: write-ahead logging not enabled")
	}
	if err := t.metaLog.Sync(); err != nil {
		return nil, err
	}
	return wal.LastCheckpoint(filepath.Join(s.opts.WALDir, tableName+".meta.wal"))
}

// ReshardHistory replays a table's meta log: the typed partition
// transitions (splits and merges) committed this incarnation, oldest
// first — starting after the last checkpoint when one has been written
// (see Options.ReshardCheckpointEvery). Requires Options.WALDir.
func (s *Server) ReshardHistory(tableName string) ([]*wal.ReshardOp, error) {
	t, err := s.table(tableName)
	if err != nil {
		return nil, err
	}
	t.partMu.RLock()
	defer t.partMu.RUnlock()
	if t.metaLog == nil {
		return nil, errors.New("central: write-ahead logging not enabled")
	}
	if err := t.metaLog.Sync(); err != nil {
		return nil, err
	}
	var out []*wal.ReshardOp
	if err := wal.ReplayOps(filepath.Join(s.opts.WALDir, tableName+".meta.wal"), func(op wal.Op) error {
		if op.Kind == wal.RecReshard {
			out = append(out, op.Reshard)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// SchemaResponse builds the client-facing verification parameters.
func (s *Server) SchemaResponse(tableName string) (*wire.SchemaResponse, error) {
	t, err := s.table(tableName)
	if err != nil {
		return nil, err
	}
	return &wire.SchemaResponse{
		Schema:     t.sch,
		KeyVersion: s.key.Public().Version,
		Scheme:     uint8(s.key.Public().Scheme),
	}, nil
}

// Serve accepts connections until the listener is closed.
func (s *Server) Serve(l net.Listener) {
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		l.Close()
		return
	}
	s.listeners = append(s.listeners, l)
	s.lnMu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		if !s.conns.Add(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.conns.Remove(conn)
			defer conn.Close()
			s.handleConn(conn)
		}()
	}
}

// Close stops serving: listeners and live connections are closed,
// in-flight handlers are drained, and every shard's write-ahead log is
// released. It reports the first WAL that failed to close cleanly —
// losing that error would hide an fsync failure at the one moment the
// operator is still there to see it. Close is idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() { s.closeErr = s.doClose() })
	return s.closeErr
}

func (s *Server) doClose() error {
	s.baseCancel()
	s.lnMu.Lock()
	s.closed = true
	for _, l := range s.listeners {
		l.Close()
	}
	s.listeners = nil
	s.lnMu.Unlock()
	s.conns.CloseAll()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	for name, t := range s.tables {
		for i, sh := range t.part.Load().shards {
			if sh.log == nil {
				continue
			}
			if cerr := sh.log.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("central: closing WAL for %q shard %d: %w", name, i, cerr)
			}
		}
		if t.metaLog != nil {
			if cerr := t.metaLog.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("central: closing meta WAL for %q: %w", name, cerr)
			}
		}
	}
	return err
}

// handleConn completes the handshake with the peer and dispatches its
// requests concurrently until it disconnects or idles out.
func (s *Server) handleConn(conn net.Conn) {
	rpc.ServeConn(conn, s.dispatch, rpc.ServeOptions{
		IdleTimeout: s.opts.IdleTimeout,
		BaseContext: s.baseCtx,
	})
}

// dispatch executes one request and returns the response frame. It must
// be safe for concurrent use: connections run requests in parallel.
// ctx is the connection's context, cancelled when the peer disconnects;
// out is the buffer the connection lends for the response (see
// rpc.Handler): a delta is built in it.
func (s *Server) dispatch(ctx context.Context, mt wire.MsgType, body, out []byte) (wire.MsgType, []byte, error) {
	switch mt {
	case wire.MsgPubKeyReq:
		blob, err := s.key.Public().MarshalBinary()
		if err != nil {
			return 0, nil, err
		}
		return wire.MsgPubKeyResp, blob, nil

	case wire.MsgListTablesReq:
		return wire.MsgListTablesResp, wire.EncodeStringList(s.Tables()), nil

	case wire.MsgShardSnapshotReq:
		req, err := wire.DecodeShardSnapshotRequest(body)
		if err != nil {
			return 0, nil, err
		}
		snap, err := s.ShardSnapshotByID(req.Table, req.ShardID)
		if err != nil {
			return 0, nil, err
		}
		enc := snap.Encode()
		s.stats.snapshotBytes.Add(uint64(len(enc)))
		return wire.MsgSnapshotResp, enc, nil

	case wire.MsgShardDeltaReq:
		req, err := wire.DecodeShardDeltaRequest(body)
		if err != nil {
			return 0, nil, err
		}
		t, sh, err := s.shardByID(req.Table, req.ShardID)
		if err != nil {
			return 0, nil, err
		}
		// The delta is built in the frame buffer the connection lends.
		enc, _, err := s.appendDelta(out, t, sh, req.FromVersion, req.Epoch)
		if err != nil {
			return 0, nil, err
		}
		s.stats.deltaBytes.Add(uint64(len(enc)))
		return wire.MsgDeltaResp, enc, nil

	case wire.MsgShardMapReq:
		sm, err := s.SignedShardMap(string(body))
		if err != nil {
			return 0, nil, err
		}
		s.stats.mapsServed.Add(1)
		enc := sm.Encode()
		s.stats.mapBytes.Add(uint64(len(enc)))
		return wire.MsgShardMapResp, enc, nil

	case wire.MsgSchemaReq:
		resp, err := s.SchemaResponse(string(body))
		if err != nil {
			return 0, nil, err
		}
		return wire.MsgSchemaResp, resp.Encode(), nil

	case wire.MsgBatchReq:
		req, err := wire.DecodeBatchRequest(body)
		if err != nil {
			return 0, nil, err
		}
		// Every insert is a batch. It takes its place in the ordered queue
		// beside deletes and reshards, and concurrent ones coalesce into
		// one group commit (see batch.go).
		opErrs, err := s.enqueueBatch(ctx, req.Table, req.Tuples)
		if err != nil {
			return 0, nil, err
		}
		return wire.MsgBatchResp, batchResponse(len(req.Tuples), opErrs).Encode(), nil

	case wire.MsgReshardReq:
		req, err := wire.DecodeReshardRequest(body)
		if err != nil {
			return 0, nil, err
		}
		resp, err := s.Reshard(ctx, req)
		if err != nil {
			return 0, nil, err
		}
		return wire.MsgReshardResp, resp.Encode(), nil

	case wire.MsgDeleteReq:
		req, err := wire.DecodeDeleteRequest(body)
		if err != nil {
			return 0, nil, err
		}
		var lo, hi *schema.Datum
		if req.HasLo {
			lo = &req.Lo
		}
		if req.HasHi {
			hi = &req.Hi
		}
		// Deletes flow through the same ordered front door as inserts,
		// so a delete cannot commit ahead of inserts that arrived before
		// it (see batch.go).
		n, err := s.enqueueDelete(ctx, req.Table, lo, hi)
		if err != nil {
			return 0, nil, err
		}
		return wire.MsgDeleteResp, wire.EncodeU64(uint64(n)), nil

	default:
		return 0, nil, wire.Unsupported("central", mt)
	}
}
