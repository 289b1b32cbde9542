// Package edge implements the unsecured edge server of the paper's
// Figure 2: it pulls table replicas ("DB + VB-trees") from the central
// server, executes selection/projection queries locally, and returns each
// result together with its verification object.
//
// Every table is range-partitioned at the central server into one or
// more shards: the edge replicates each shard independently (its own
// snapshot-isolated storage.PageStore, its own delta stream) and relays
// the central-signed shard map to clients, which verify it and
// scatter-gather per-shard queries. Per-shard refresh means one hot shard
// ships only its own pages — a cold shard costs nothing per refresh tick
// — and the shards of a table that do need a payload are fetched at the
// same time, each into its own store and its own result (alignShards), so
// a round that dirtied all of them costs the slowest exchange, not the
// sum. A delta's pages are copied once on this side: the decoder hands
// out views of the received body and Overlay.WritePage copies them into
// the store.
//
// Replica storage is snapshot-isolated and set-consistent: a refresh
// builds successor shard snapshots off to the side and then publishes
// ONE immutable tableSet — the signed shard map plus a pinned snapshot
// per shard — with a single atomic pointer swap. Queries pin the set's
// snapshots (RCU: the set holds a reference for its tenure, readers
// take short-lived ones), so every answer is produced against exactly
// the map version served with it; refresh cadence and query latency
// stay independent, and a client can never observe a map that runs
// ahead of or behind the shard data answering its query.
//
// Edge servers are the untrusted component of the architecture; this
// package is the honest one. A compromised edge is a proxy owning the
// channel in front of it — an rpc.Server serving a tamper wrapper around
// Handler — which may ask the honest replica anything.
package edge

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"edgeauth/internal/digest"
	"edgeauth/internal/peer"
	"edgeauth/internal/query"
	"edgeauth/internal/rpc"
	"edgeauth/internal/schema"
	"edgeauth/internal/shardmap"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/verify"
	"edgeauth/internal/vo"
	"edgeauth/internal/wire"
)

// Options configures an edge server's serving side.
type Options struct {
	// IdleTimeout disconnects a client that sends no complete request
	// within the window (slowloris protection). 0 selects
	// rpc.DefaultIdleTimeout; negative disables the deadline.
	IdleTimeout time.Duration
	// Upstreams are peer edge addresses tried in order — before the
	// central server — for bulk refresh payloads (deltas, snapshots).
	// The signed shard map and the central public key always come from
	// the central: only it can vouch for freshness, so a peer can carry
	// bytes but never redefine what "current" means. Unreachable, stale
	// or misbehaving upstreams are backed off (internal/peer) and the
	// refresh fails over to the central automatically.
	Upstreams []string
	// ServePeers answers replication requests (snapshots, deltas) from
	// this edge's published replicas and relay cache, making it an
	// upstream tier for other edges (see peers.go).
	ServePeers bool
}

// Server is an edge server holding replicated tables. The query path is
// lock-free: the table registry is a copy-on-write map behind an atomic
// pointer, and each replica serves queries from the pinned snapshots of
// its current published set.
type Server struct {
	tables   atomic.Pointer[map[string]*replica]
	tablesMu sync.Mutex // serializes registry copy-on-write updates

	opts Options
	// central is the auto-redialing connection to the central server;
	// every replication exchange (snapshots, deltas, shard maps, the key
	// fetch) goes over it, each on a session of its own.
	central *rpc.Conn
	// peers is the ordered upstream set bulk payloads are pulled from
	// before the central (nil when no upstreams are configured; the
	// peer.Set API is nil-safe).
	peers *peer.Set
	// relay caches the raw central-signed delta bodies this edge pulled
	// and verified, for verbatim relay to downstream edges.
	relay *peer.Cache

	// keys holds the central's public keys by version, filled from the
	// central itself (underCentralKey). ver checks every central signature
	// this edge installs — shard maps, delta bodies, shard roots — against
	// it, through one verified-signature cache.
	keys *sig.Registry
	ver  *verify.Verifier

	stats edgeCounters

	srv       *rpc.Server // serves clients and downstream peers
	closeOnce sync.Once
	closeErr  error
	tamper    atomic.Pointer[func(*vo.ResultSet, *vo.VO) error] // SetTamper's hook

	// now, when set, is the clock the views of replicas created from here
	// on stamp VOs with, in place of the wall clock: tests fix it.
	now func() int64
}

// acc is the one accumulator every replica's views compute with. The ring
// is a constant of package digest, so nothing a central or a relay sends
// chooses what the answers served from here verify under.
var acc = digest.MustNew(digest.DefaultParams())

// replica is one replicated table. Its queryable state lives in an
// immutable tableSet behind one atomic pointer; refreshMu serializes
// refreshes building successor sets.
type replica struct {
	sch *schema.Schema

	set atomic.Pointer[tableSet]

	refreshMu sync.Mutex

	// diverged is set when a refresh discovers the central's table epoch
	// no longer matches this replica's — its version history descends
	// from a dead incarnation, so every answer it could give is
	// unverifiably stale. Queries fail with wire.ErrStaleReplica until a
	// snapshot reinstall replaces the replica (a fresh replica object, so
	// the flag never needs clearing).
	diverged atomic.Bool

	// now is the clock its views stamp VOs with (Server.now).
	now func() int64
}

// tableSet is one consistent, immutable publication of a table: the
// signed shard map and, per shard, a pinned snapshot with its decoded
// anchor.
// The set holds one snapshot reference per shard for its tenure as the
// replica's current set; the swap that supersedes it releases them.
type tableSet struct {
	smap *shardmap.Signed
	// smapBytes is smap's encoding, attached to every shard answer.
	smapBytes []byte
	shards    []*shardReplica
	// memo holds the responses this set built (see memo.go).
	memo answerMemo
}

// shardReplica is one shard's store plus the snapshot this set pins.
type shardReplica struct {
	store *storage.PageStore
	snap  *storage.Snapshot
	state *vbtree.TableState
	// view is the read view over snap, built once when the snapshot is
	// pinned and shared by every query that retains it: a query needs
	// nothing of its own but its pin.
	view *vbtree.View
}

// pinCurrent pins a store's current snapshot, decodes its anchor and
// builds the view queries run on.
func (r *replica) pinCurrent(store *storage.PageStore) (*shardReplica, error) {
	snap := store.Acquire()
	st, ok := snap.Meta().(*vbtree.TableState)
	if !ok {
		snap.Release()
		return nil, errors.New("edge: replica has no published version")
	}
	// The edge holds no trusted key: the root signature is bytes it serves
	// back. The view wants a public key only for the VO's key version.
	view, err := st.ViewOver(snap, r.sch, acc, &sig.PublicKey{Version: st.KeyVersion})
	if err != nil {
		snap.Release()
		return nil, err
	}
	if r.now != nil {
		view = view.Clocked(r.now)
	}
	return &shardReplica{store: store, snap: snap, state: st, view: view}, nil
}

// storeState reads a store's current (head) anchor without keeping a
// pin. Refresh negotiates from the head, NOT from the published set's
// pinned state: after a partially-failed refresh a store may already
// sit ahead of the set, and resuming from the pinned state would
// request deltas the store must reject.
func storeState(store *storage.PageStore) (*vbtree.TableState, error) {
	snap := store.Acquire()
	defer snap.Release()
	st, ok := snap.Meta().(*vbtree.TableState)
	if !ok {
		return nil, errors.New("edge: replica has no published version")
	}
	return st, nil
}

// release drops the set's snapshot pins (called when the set is
// superseded; readers holding Retained pins keep theirs).
func (ts *tableSet) release() {
	for _, sr := range ts.shards {
		sr.snap.Release()
	}
}

// publishSet swaps in the successor set and releases the superseded one.
func (r *replica) publishSet(next *tableSet) {
	if old := r.set.Swap(next); old != nil {
		old.release()
	}
}

// rebuildSet republishes the replica's set from its stores' current
// snapshots with a new map (used after per-shard refreshes).
func (r *replica) rebuildSet(smap *shardmap.Signed, stores []*storage.PageStore) error {
	next := &tableSet{smap: smap, smapBytes: smap.Encode()}
	for _, store := range stores {
		sr, err := r.pinCurrent(store)
		if err != nil {
			for _, prev := range next.shards {
				prev.snap.Release()
			}
			return err
		}
		next.shards = append(next.shards, sr)
	}
	r.publishSet(next)
	return nil
}

// errShardRange marks a shard index (or stable ID) outside the published
// set — after an online split or merge, a caller routing on an older map
// can legitimately address a position or a shard that no longer exists,
// so serving paths surface this as the typed shard-moved refusal rather
// than an internal error.
var errShardRange = errors.New("edge: shard outside the published set")

// pinShard takes a reader's pin on shard i of the current set. The
// caller must Release the returned snapshot. RCU: if the set drains
// between the load and the Retain, reload and retry.
func (r *replica) pinShard(i int) (*tableSet, *shardReplica, error) {
	for {
		set := r.set.Load()
		if set == nil {
			return nil, nil, errors.New("edge: replica has no published set")
		}
		if i < 0 || i >= len(set.shards) {
			return nil, nil, fmt.Errorf("%w: shard %d, replica has %d", errShardRange, i, len(set.shards))
		}
		sr := set.shards[i]
		if sr.snap.Retain() {
			return set, sr, nil
		}
		// The set was superseded and fully drained between Load and
		// Retain; the new current set is already published.
	}
}

// pinShardID is pinShard for a caller that names the shard by stable ID
// (a downstream edge's replication request): the position is looked up
// in the same set the pin is taken on, so an online transition landing
// between the two cannot hand back a neighbour.
func (r *replica) pinShardID(id uint64) (*shardReplica, error) {
	for {
		set := r.set.Load()
		if set == nil {
			return nil, errors.New("edge: replica has no published set")
		}
		i := set.indexOfID(id)
		if i < 0 {
			return nil, fmt.Errorf("%w: no shard with ID %d", errShardRange, id)
		}
		if sr := set.shards[i]; sr.snap.Retain() {
			return sr, nil
		}
	}
}

// indexOfID returns the position of the shard with stable ID id in this
// set's partition, or -1.
func (ts *tableSet) indexOfID(id uint64) int {
	for i := range ts.smap.Map.Shards {
		if ts.smap.Map.Shards[i].ID == id {
			return i
		}
	}
	return -1
}

// New creates an edge server that replicates from centralAddr.
func New(centralAddr string) *Server {
	return NewWithOptions(centralAddr, Options{})
}

// NewWithOptions creates an edge server with explicit serving options.
func NewWithOptions(centralAddr string, opts Options) *Server {
	keys := sig.NewRegistry()
	s := &Server{
		opts:    opts,
		central: rpc.New(centralAddr, rpc.Options{}),
		relay:   peer.NewCache(0),
		keys:    keys,
		ver:     &verify.Verifier{Keys: keys, Acc: acc},
	}
	if len(opts.Upstreams) > 0 {
		s.peers = peer.NewSet(opts.Upstreams)
	}
	s.srv = rpc.NewServer(s.serve, rpc.ServeOptions{IdleTimeout: opts.IdleTimeout})
	empty := make(map[string]*replica)
	s.tables.Store(&empty)
	return s
}

// SetTamper installs (or clears, with nil) a hook fn mutating every shard
// answer Serve sends. It is a shim for the benchmark harness's tamper
// canary, deleted once the canary runs through a tamper proxy (ROADMAP
// 9(0)), which is what a compromised edge otherwise is.
func (s *Server) SetTamper(fn func(rs *vo.ResultSet, w *vo.VO) error) {
	s.tamper.Store(&fn)
}

// replica resolves a table from the lock-free registry.
func (s *Server) replica(name string) *replica {
	return (*s.tables.Load())[name]
}

// setReplica publishes a new registry map with name -> rep installed.
// The displaced replica's set (if any) is released so its pins drain.
func (s *Server) setReplica(name string, rep *replica) {
	s.tablesMu.Lock()
	defer s.tablesMu.Unlock()
	old := *s.tables.Load()
	next := make(map[string]*replica, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	displaced := old[name]
	next[name] = rep
	s.tables.Store(&next)
	if displaced != nil && displaced != rep {
		if set := displaced.set.Swap(nil); set != nil {
			set.release()
		}
	}
}

// Tables lists the replicated tables.
func (s *Server) Tables() []string {
	m := *s.tables.Load()
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// PullAll replicates every table the central server advertises.
func (s *Server) PullAll(ctx context.Context) error {
	body, err := s.central.Call(ctx, wire.MsgListTablesReq, nil, wire.MsgListTablesResp, true)
	if err != nil {
		return err
	}
	names, err := wire.DecodeStringList(body)
	if err != nil {
		return err
	}
	for _, name := range names {
		if err := s.Pull(ctx, name); err != nil {
			return err
		}
	}
	return nil
}

// Pull replicates one table from nothing: every shard is
// snapshot-installed and a fresh replica replaces whatever was there.
func (s *Server) Pull(ctx context.Context, tableName string) error {
	_, err := s.replicate(ctx, tableName, nil)
	return err
}

// fetchVerifiedMap pulls the table's signed shard map from the central
// server and checks it — table, shape, key window and signature — before
// anything trusts it. An idle table serves the same bytes every tick, and
// the verifier checks each distinct map once. The map returned may be
// shared and is read-only. Returns the wire size alongside.
func (s *Server) fetchVerifiedMap(ctx context.Context, tableName string) (*shardmap.Signed, int, error) {
	body, err := s.central.Call(ctx, wire.MsgShardMapReq, []byte(tableName), wire.MsgShardMapResp, true)
	if err != nil {
		return nil, 0, err
	}
	var sm *shardmap.Signed
	err = s.underCentralKey(ctx, func() (err error) {
		sm, err = s.ver.VerifySignedMap(body, tableName)
		return err
	})
	if err != nil {
		return nil, 0, fmt.Errorf("edge: shard map rejected: %w", err)
	}
	s.countPull(nil, len(body))
	return sm, len(body), nil
}

// installStore builds a shard's page store from a snapshot. Only the
// root signature of a snapshot is signed, so everything that sizes an
// allocation — the page size, the largest page ID — is checked against
// the pages the snapshot actually carries before anything is allocated:
// a relay cannot make the edge reserve more than it was sent.
func installStore(snap *wire.Snapshot) (*storage.PageStore, error) {
	if snap.PageSize < storage.MinPageSize {
		return nil, errors.New("edge: snapshot page size too small")
	}
	var maxID storage.PageID
	for i, id := range snap.PageIDs {
		if len(snap.PageData[i]) != int(snap.PageSize) {
			return nil, fmt.Errorf("edge: page %d has %d bytes, want %d", id, len(snap.PageData[i]), snap.PageSize)
		}
		if id > maxID {
			maxID = id
		}
	}
	// A snapshot lists every page of its shard, so its largest ID is its
	// page count (and it has at least the root's page).
	if maxID == 0 || int(maxID) > len(snap.PageIDs) {
		return nil, fmt.Errorf("edge: snapshot names page %d but carries %d pages", maxID, len(snap.PageIDs))
	}
	store, err := storage.NewPageStore(int(snap.PageSize))
	if err != nil {
		return nil, err
	}
	ov := store.Begin()
	defer ov.Abort() // no-op once published
	// Recreate the page address space, then overlay the snapshot pages.
	for ov.NumPages() <= int(maxID) {
		ov.Allocate()
	}
	for i, id := range snap.PageIDs {
		if err := ov.WritePage(id, snap.PageData[i]); err != nil {
			return nil, err
		}
	}
	st := &vbtree.TableState{
		Root:       snap.Root,
		Height:     int(snap.Height),
		RootSig:    sig.Signature(snap.RootSig).Clone(),
		HeapPages:  append([]storage.PageID(nil), snap.HeapPages...),
		KeyVersion: snap.KeyVersion,
		Scheme:     sig.Scheme(snap.Scheme),
		Version:    snap.Version,
		Epoch:      snap.Epoch,
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	ov.Publish(st)
	return store, nil
}

// applyDelta builds the successor snapshot from a verified delta — the
// changed pages written into a copy-on-write overlay, the tree re-anchored
// at the delta's root metadata — and publishes it into the store with one
// atomic swap. Queries in flight keep reading their pinned version; they
// never observe a half-applied delta. ref is the Table value the delta
// must carry (the shard ref). The caller republishes the replica's
// tableSet afterwards.
func applyDelta(store *storage.PageStore, d *wire.Delta, ref string) error {
	ov := store.Begin()
	defer ov.Abort() // no-op once published
	st, ok := ov.Base().Meta().(*vbtree.TableState)
	if !ok {
		return errors.New("edge: replica has no published version")
	}
	if d.Table != ref {
		return fmt.Errorf("edge: delta is for %q, want %q", d.Table, ref)
	}
	if d.Epoch != st.Epoch {
		return wire.StaleReplica(d.Table, fmt.Sprintf("edge: delta from epoch %d, replica version history from %d", d.Epoch, st.Epoch))
	}
	if d.FromVersion != st.Version {
		return wire.StaleReplica(d.Table, fmt.Sprintf("edge: delta starts at version %d, replica at %d", d.FromVersion, st.Version))
	}
	pageSize := store.PageSize()
	// Validate every page before staging anything; a bad delta must not
	// publish at all.
	for i, id := range d.PageIDs {
		if len(d.PageData[i]) != pageSize {
			return fmt.Errorf("edge: delta page %d has %d bytes, want %d", id, len(d.PageData[i]), pageSize)
		}
		if id == 0 || int(id) >= int(d.NumPages) {
			return fmt.Errorf("edge: delta page %d outside advertised page count %d", id, d.NumPages)
		}
	}
	next := &vbtree.TableState{
		Root:       d.Root,
		Height:     int(d.Height),
		RootSig:    sig.Signature(d.RootSig).Clone(),
		HeapPages:  append([]storage.PageID(nil), d.HeapPages...),
		KeyVersion: d.KeyVersion,
		Scheme:     sig.Scheme(d.Scheme),
		Version:    d.ToVersion,
		Epoch:      st.Epoch,
	}
	if err := next.Validate(); err != nil {
		return err
	}
	for ov.NumPages() < int(d.NumPages) {
		ov.Allocate()
	}
	for i, id := range d.PageIDs {
		if err := ov.WritePage(id, d.PageData[i]); err != nil {
			return err
		}
	}
	ov.Publish(next)
	return nil
}

// RefreshStat reports how one table was brought up to date.
type RefreshStat struct {
	Table string
	// Mode is "delta", "snapshot" (first pull, fallback, or any shard
	// resnapshotted), or "noop" (replica already current).
	Mode string
	// Bytes is the wire size of the response bodies that carried the
	// state (all shards combined).
	Bytes                  int
	FromVersion, ToVersion uint64
	// ShardsRefreshed is how many shards actually shipped pages this
	// refresh (0 for noop).
	ShardsRefreshed int
}

// RefreshAll brings every replica up to date, preferring signed deltas
// and falling back to full snapshots for new tables or replicas that
// have fallen out of the central server's retained changelog. Tables are
// refreshed independently: one failing table does not starve the rest,
// and the stats of the tables that did refresh are returned alongside
// the joined errors. Refreshes never block queries: each builds the
// successor set off to the side and publishes it atomically.
func (s *Server) RefreshAll(ctx context.Context) ([]RefreshStat, error) {
	body, err := s.central.Call(ctx, wire.MsgListTablesReq, nil, wire.MsgListTablesResp, true)
	if err != nil {
		return nil, err
	}
	names, err := wire.DecodeStringList(body)
	if err != nil {
		return nil, err
	}
	stats := make([]RefreshStat, 0, len(names))
	var errs []error
	for _, name := range names {
		// A cancelled refresh stops here instead of accumulating one dial
		// error per remaining table.
		if cerr := ctx.Err(); cerr != nil {
			errs = append(errs, cerr)
			break
		}
		st, err := s.Refresh(ctx, name)
		if err != nil {
			errs = append(errs, fmt.Errorf("edge: refreshing %q: %w", name, err))
			continue
		}
		stats = append(stats, st)
	}
	return stats, errors.Join(errs...)
}

// Refresh brings one replica up to date (per-shard deltas if possible,
// snapshots otherwise) and reports what was transferred. A table this
// edge does not replicate yet is bootstrapped.
func (s *Server) Refresh(ctx context.Context, tableName string) (RefreshStat, error) {
	return s.replicate(ctx, tableName, s.replica(tableName))
}

// errEpochChanged reports a shard store whose version history descends
// from a different table incarnation than the signed map's.
var errEpochChanged = errors.New("edge: table epoch changed")

// maxAlignAttempts bounds the map-refetch loop when central commits
// race the refresh; each attempt converges unless yet another commit
// lands inside it, so a small bound suffices and a saturated central
// simply retries on the next tick (the old consistent set keeps
// serving).
const maxAlignAttempts = 4

// maxEpochRestarts bounds how often one replicate call starts over from
// no stores because the table's incarnation changed under it.
const maxEpochRestarts = 2

// maxDeltaHops bounds how many consecutive deltas one shard accepts from
// one source — a guard rail, not a protocol limit (each accepted hop must
// advance the store, so the loop already cannot cycle).
const maxDeltaHops = 64

// replicate is the one replication loop: it brings tableName's shard
// stores to a verified signed map and publishes them as one set. The
// starting stores are an input, not a mode — rep's published stores when
// rep is non-nil (a refresh: stale stores, or stores laid out for an
// earlier partition), none when it is nil (a bootstrap: the result is
// installed as a fresh replica). Stores from a dead table incarnation
// flag rep diverged, so queries report staleness instead of answering
// from it, and the loop starts again from none.
func (s *Server) replicate(ctx context.Context, tableName string, rep *replica) (RefreshStat, error) {
	stat := RefreshStat{Table: tableName, Mode: "noop"}
	var stores []*storage.PageStore
	var ids []uint64
	if rep != nil {
		rep.refreshMu.Lock()
		defer rep.refreshMu.Unlock()
		cur := rep.set.Load()
		if cur == nil {
			// Displaced replica (a concurrent pull swapped in a successor);
			// the registry's current replica will serve.
			return stat, nil
		}
		stat.FromVersion = cur.smap.Map.MapVersion
		ids = shardIDs(cur.smap)
		for _, sr := range cur.shards {
			stores = append(stores, sr.store)
		}
	}
	var a alignment
	for restarts := 0; ; restarts++ {
		sm, n, err := s.fetchVerifiedMap(ctx, tableName)
		if err != nil {
			return RefreshStat{}, err
		}
		stat.Bytes += n
		a, err = s.alignShards(ctx, tableName, sm, stores, ids)
		stat.Bytes += a.bytes
		if err == nil {
			break
		}
		if !errors.Is(err, errEpochChanged) || restarts >= maxEpochRestarts {
			return RefreshStat{}, err
		}
		if stores != nil {
			rep.diverged.Store(true)
			stores, ids = nil, nil
		}
	}
	// One atomic publish: the new map and the shard snapshots it pins
	// become visible together, so a query can never pair an answer with
	// a map from a different refresh generation.
	if err := s.verifyAlignedStores(ctx, a.smap, a.stores); err != nil {
		return RefreshStat{}, err
	}
	target := rep
	if stores == nil {
		// Started from none: the stores become a fresh replica.
		target = &replica{sch: a.sch, now: s.now}
	}
	if err := target.rebuildSet(a.smap, a.stores); err != nil {
		return RefreshStat{}, err
	}
	if target != rep {
		s.setReplica(tableName, target)
	}
	stat.ToVersion = a.smap.Map.MapVersion
	stat.ShardsRefreshed = a.refreshed
	switch {
	case a.refreshed == 0:
	case a.snapshotted:
		stat.Mode = "snapshot"
	default:
		stat.Mode = "delta"
	}
	if rep != nil && a.refreshed > 0 {
		s.stats.refreshesApplied.Add(1)
	}
	return stat, nil
}

// shardIDs extracts a map's stable shard-identity sequence.
func shardIDs(sm *shardmap.Signed) []uint64 {
	ids := make([]uint64, len(sm.Map.Shards))
	for i := range sm.Map.Shards {
		ids[i] = sm.Map.Shards[i].ID
	}
	return ids
}

func sameIDs(a, b []uint64) bool {
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

// shardFetch is what bringing one shard to its pin produced. Every
// concurrent refreshShard fills its own; alignShards merges them after the
// join.
type shardFetch struct {
	// store holds the result: the store the fetch started from, advanced,
	// or a snapshot-installed replacement (nil when the fetch failed).
	store *storage.PageStore
	// sch is the table's schema as the snapshot installed by this fetch
	// declared it (nil when it installed none).
	sch *schema.Schema
	// bytes is the wire size of the payloads that carried state.
	bytes int
}

// alignment is what one alignShards call produced: the map the stores
// ended aligned to, the stores in that map's partition order, and what
// it cost to get there.
type alignment struct {
	smap   *shardmap.Signed
	stores []*storage.PageStore
	// sch is the table's schema as the first snapshot installed along the
	// way declared it (a bootstrap builds its replica from it; nil when no
	// snapshot was installed).
	sch *schema.Schema
	// bytes is the wire size of the payloads that carried state,
	// refreshed how many shards shipped pages, snapshotted whether any of
	// them was snapshot-installed.
	bytes, refreshed int
	snapshotted      bool
}

// maxShardFetches bounds how many shards of one table are refreshed at
// the same time: each fetch in flight holds one decoded payload, so the
// bound is also the number of snapshots a bootstrap keeps in memory.
const maxShardFetches = 8

// alignShards brings a table's stores to exactly the shard versions sm
// pins by walking the map's stable shard IDs: an ID with no store gets a
// snapshot, a store behind its pin gets deltas (refreshShard), and a
// store ahead of its pin — a central commit raced the refresh — or a
// typed ShardMoved — a split or merge retired a shard sm names, so sm is
// a superseded generation — refetches the map (bounded); published sets
// must never pair a map with data from a different version. Deltas are
// negotiated from each store's HEAD (not the published set), so a
// refresh that failed partway resumes cleanly instead of wedging on
// version mismatches.
//
// The shards that need a payload are fetched at the same time (at most
// maxShardFetches of them): a round that dirtied every shard costs the
// slowest shard's exchange, not their sum. The fetches share nothing they
// write — each works on its own store and fills its own shardFetch, which
// is merged here after all have returned; what they do share is safe for
// concurrent use (the rpc connections, the source set's health, the
// relay cache, the key registry and the verifier, the counters). The first
// failure cancels the others. Whatever those had already applied stays
// in their stores, which is where the next pass resumes.
//
// stores is the starting state, laid out for the partition whose stable
// shard-ID sequence is ids; both are empty for a bootstrap. Stores are
// matched to sm by ID, so when sm describes a different partition of the
// same table incarnation (an online split or merge) surviving shards
// carry their stores over untouched, only the shards the transition
// created are snapshot-installed, and the relay cache lets go of the
// retired shards' deltas (replication addresses by ID, so nothing can
// ask for them again).
func (s *Server) alignShards(ctx context.Context, tableName string, sm *shardmap.Signed, stores []*storage.PageStore, ids []uint64) (alignment, error) {
	var a alignment
	held := make(map[uint64]*storage.PageStore, len(ids))
	for i, id := range ids {
		if i < len(stores) {
			held[id] = stores[i]
		}
	}
	// pass walks sm once and reports whether every store ended on the
	// version sm pins.
	pass := func() (bool, error) {
		shards := sm.Map.Shards
		heads := make([]*vbtree.TableState, len(shards))
		epochChanged := func(i int) error {
			return fmt.Errorf("%w: map epoch %d, shard %d epoch %d", errEpochChanged, sm.Map.Epoch, i, heads[i].Epoch)
		}
		var behind []int
		for i := range shards {
			if store := held[shards[i].ID]; store != nil {
				var err error
				if heads[i], err = storeState(store); err != nil {
					return false, err
				}
				if heads[i].Epoch != sm.Map.Epoch {
					return false, epochChanged(i)
				}
			}
			if heads[i] == nil || heads[i].Version < shards[i].Version {
				behind = append(behind, i)
			}
		}
		fetched, err := s.refreshShards(ctx, tableName, sm, behind, held)
		for k, i := range behind {
			f := &fetched[k]
			a.bytes += f.bytes
			if f.sch != nil {
				a.snapshotted = true
				if a.sch == nil {
					a.sch = f.sch
				}
			}
			if f.store == nil {
				continue
			}
			held[shards[i].ID] = f.store
			a.refreshed++
			var herr error
			if heads[i], herr = storeState(f.store); herr != nil && err == nil {
				err = herr
			}
		}
		if err != nil {
			return false, err
		}
		aligned := true
		for i := range shards {
			if heads[i].Epoch != sm.Map.Epoch {
				return false, epochChanged(i)
			}
			if heads[i].Version != shards[i].Version {
				// The store is not where this map pins it (ahead: a commit
				// raced us): a newer signed map pinning the head exists —
				// fetch it.
				aligned = false
			}
		}
		return aligned, nil
	}
	for attempt := 0; ; attempt++ {
		aligned, err := pass()
		if err != nil && !errors.Is(err, wire.ErrShardMoved) {
			return a, err
		}
		if err == nil && aligned {
			break
		}
		if attempt >= maxAlignAttempts {
			return a, fmt.Errorf("edge: central commits kept racing the refresh of %q; retrying next tick", tableName)
		}
		next, n, err := s.fetchVerifiedMap(ctx, tableName)
		if err != nil {
			return a, err
		}
		a.bytes += n
		sm = next
	}
	a.smap = sm
	a.stores = make([]*storage.PageStore, len(sm.Map.Shards))
	for i := range sm.Map.Shards {
		id := sm.Map.Shards[i].ID
		a.stores[i] = held[id]
		delete(held, id)
	}
	for id := range held {
		s.relay.Drop(wire.ShardRef(tableName, id))
	}
	if len(ids) > 0 && !sameIDs(ids, shardIDs(sm)) {
		s.stats.reshardsApplied.Add(1)
	}
	return a, nil
}

// refreshShards runs refreshShard for the shards of sm at the positions in
// behind, at most maxShardFetches at a time, and returns one shardFetch
// per position once all of them have returned. The error is the first
// failure (or the caller's cancellation): it cancels the fetches still
// running and keeps those not yet started from starting, and their
// entries have no store. held is only read.
func (s *Server) refreshShards(ctx context.Context, tableName string, sm *shardmap.Signed, behind []int, held map[uint64]*storage.PageStore) ([]shardFetch, error) {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	fetched := make([]shardFetch, len(behind))
	slots := make(chan struct{}, maxShardFetches)
	var wg sync.WaitGroup
launch:
	for k, idx := range behind {
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
			break launch
		}
		wg.Add(1)
		go func(f *shardFetch, idx int, store *storage.PageStore) {
			defer wg.Done()
			defer func() { <-slots }()
			var err error
			if f.store, err = s.refreshShard(ctx, tableName, sm, idx, store, f); err != nil {
				cancel(err)
			}
		}(&fetched[k], idx, held[sm.Map.Shards[idx].ID])
	}
	wg.Wait()
	return fetched, context.Cause(ctx)
}

// sources lists where a bulk payload (snapshot, delta) is asked for, in
// order: the available upstream peers, then the central server (nil).
// Trust anchors — the signed shard map and the central public key —
// always come from the central.
func (s *Server) sources() []*peer.Source {
	return append(s.peers.Available(), nil)
}

// connOf returns the connection to a source (nil: the central).
func (s *Server) connOf(src *peer.Source) *rpc.Conn {
	if src == nil {
		return s.central
	}
	return src.Conn()
}

// refreshShard moves shard idx of sm to its pin and returns the store
// holding the result: store itself, advanced by deltas hop by hop, or —
// when there is no store to start from, or the source says no delta can
// bridge the gap (the central's signed SnapshotNeeded, a peer's typed
// DeltaGap) — a snapshot-installed replacement. Sources are tried in
// order; a peer that fails in any way (unreachable, typed behind, bad
// signature, source rule) is backed off and the next source continues
// from wherever the store got to, so a malicious or wedged peer costs
// latency, never correctness. Only the central's failure, ctx expiry or
// a local store fault aborts. It runs beside the refreshShard calls of the
// table's other shards: what it fetched is accounted in f, which like
// store is its own.
func (s *Server) refreshShard(ctx context.Context, tableName string, sm *shardmap.Signed, idx int, store *storage.PageStore, f *shardFetch) (*storage.PageStore, error) {
	target := sm.Map.Shards[idx].Version
	for _, src := range s.sources() {
		for hops := 0; hops < maxDeltaHops; hops++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			var err error
			gap := store == nil
			if !gap {
				head, herr := storeState(store)
				if herr != nil {
					return nil, herr
				}
				if head.Version >= target {
					return store, nil
				}
				var d *wire.Delta
				d, err = s.fetchDelta(ctx, src, tableName, sm.Map.Shards[idx].ID, store, head, f)
				if err == nil && !d.SnapshotNeeded {
					if d.ToVersion == head.Version {
						// The central has nothing past the head although sm
						// pins more: sm is not its map; alignShards refetches.
						return store, nil
					}
					continue
				}
				gap = err == nil || errors.Is(err, wire.ErrDeltaGap)
			}
			if gap {
				var fresh *storage.PageStore
				if fresh, err = s.fetchSnapshot(ctx, src, tableName, sm, idx, f); err == nil {
					return fresh, nil
				}
			}
			if src == nil {
				return nil, err
			}
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			s.peerFail(src)
			break
		}
	}
	return store, nil
}

// fetchSnapshot asks src for the snapshot of shard idx of sm and installs
// it as a new store — the request, decode, source rule, signature check,
// install, relay-cache and counter updates of every snapshot this edge
// takes, whoever serves it and whatever it is for.
//
// Source rule: a peer's snapshot must land exactly on the verified map's
// pin (same epoch, the pinned version, a root signature authenticating
// the pinned digest), so a replayed stale snapshot or another shard's
// payload fails here. Only the central itself may serve state the map
// cannot vouch for yet — a commit racing the pull leaves its snapshot
// ahead of the map; then only the signature's shape is checked here and
// verifyAlignedStores binds the store to the final map before publish.
func (s *Server) fetchSnapshot(ctx context.Context, src *peer.Source, tableName string, sm *shardmap.Signed, idx int, f *shardFetch) (*storage.PageStore, error) {
	pin := &sm.Map.Shards[idx]
	req := &wire.ShardSnapshotRequest{Table: tableName, ShardID: pin.ID}
	body, err := s.connOf(src).Call(ctx, wire.MsgShardSnapshotReq, req.Encode(), wire.MsgSnapshotResp, true)
	if err != nil {
		return nil, err
	}
	snap, err := wire.DecodeSnapshot(body)
	if err != nil {
		return nil, err
	}
	var pinned []byte
	if snap.Epoch == sm.Map.Epoch && snap.Version == pin.Version {
		pinned = pin.RootDigest
	} else if src != nil {
		return nil, wire.Behind(tableName, fmt.Sprintf(
			"edge: peer snapshot at epoch %d v%d, verified map pins epoch %d v%d",
			snap.Epoch, snap.Version, sm.Map.Epoch, pin.Version))
	}
	if err := s.verifySnapshot(ctx, snap, pinned); err != nil {
		return nil, err
	}
	store, err := installStore(snap)
	if err != nil {
		return nil, err
	}
	// The store's history restarts here: relayable deltas below it no
	// longer chain to anything this edge serves.
	s.relay.Drop(wire.ShardRef(tableName, pin.ID))
	s.stats.snapshotsInstalled.Add(1)
	s.countPull(src, len(body))
	f.bytes += len(body)
	f.sch = snap.Schema
	return store, nil
}

// fetchDelta asks src for the delta that continues shard id's store from
// its head and applies it — the request, decode, signature check, source
// rule, apply, relay-cache and counter updates of every delta this edge
// takes. The verified delta is returned so the caller can tell progress
// from the central's two other answers.
//
// Source rule: a relayed delta must anchor at the store's exact head and
// move it strictly forward. SnapshotNeeded markers and noops are
// central-only answers — from a peer they could replay forever, so they
// count as a failed source instead.
func (s *Server) fetchDelta(ctx context.Context, src *peer.Source, tableName string, id uint64, store *storage.PageStore, head *vbtree.TableState, f *shardFetch) (*wire.Delta, error) {
	ref := wire.ShardRef(tableName, id)
	req := &wire.ShardDeltaRequest{Table: tableName, ShardID: id, FromVersion: head.Version, Epoch: head.Epoch}
	body, err := s.connOf(src).Call(ctx, wire.MsgShardDeltaReq, req.Encode(), wire.MsgDeltaResp, true)
	if err != nil {
		return nil, err
	}
	d, err := wire.DecodeDelta(body)
	if err != nil {
		return nil, err
	}
	if err := s.verifyDelta(ctx, d, body); err != nil {
		return nil, err
	}
	if src != nil && (d.Table != ref || d.SnapshotNeeded || d.Epoch != head.Epoch ||
		d.FromVersion != head.Version || d.ToVersion <= head.Version) {
		return nil, fmt.Errorf("edge: peer delta for %q (epoch %d, v%d→v%d, snapshot-needed %t) makes no progress from %q epoch %d v%d",
			d.Table, d.Epoch, d.FromVersion, d.ToVersion, d.SnapshotNeeded, ref, head.Epoch, head.Version)
	}
	if !d.SnapshotNeeded && d.ToVersion != head.Version {
		if err := applyDelta(store, d, ref); err != nil {
			return nil, err
		}
		s.relay.Put(ref, d.Epoch, d.FromVersion, d.ToVersion, body)
		s.stats.deltasApplied.Add(1)
	}
	s.countPull(src, len(body))
	f.bytes += len(body)
	return d, nil
}

// underCentralKey runs check against the key registry and — the central
// may have rotated or regenerated its key since the registry was filled,
// and an empty registry holds no key at all — once more after fetching
// the central's current key over the replication connection, the edge's
// authenticated channel, before the rejection stands.
func (s *Server) underCentralKey(ctx context.Context, check func() error) error {
	if check() == nil {
		return nil
	}
	body, err := s.central.Call(ctx, wire.MsgPubKeyReq, nil, wire.MsgPubKeyResp, true)
	if err != nil {
		return err
	}
	var pub sig.PublicKey
	if err := pub.UnmarshalBinary(body); err != nil {
		return err
	}
	s.keys.Put(&pub)
	return check()
}

// verifyDelta signature-checks a delta's received bytes.
func (s *Server) verifyDelta(ctx context.Context, d *wire.Delta, body []byte) error {
	payload, err := d.SigPayloadOfBody(body)
	if err != nil {
		return err
	}
	return s.underCentralKey(ctx, func() error {
		if err := s.ver.VerifySigned(d.KeyVersion, d.Sig, payload); err != nil {
			return fmt.Errorf("edge: delta signature rejected: %w", err)
		}
		return nil
	})
}

// verifySnapshot anchors a pulled snapshot in the central key before any
// of its pages are installed, when the caller holds the root digest it
// must carry: pinned is vouched for by already-verified material (the
// signed shard map), and the snapshot's root signature must authenticate
// exactly it. Without a pin nothing is checked here — only the central
// may serve a snapshot the map cannot vouch for yet — and
// verifyAlignedStores binds the installed store to the final map before
// it is published.
func (s *Server) verifySnapshot(ctx context.Context, snap *wire.Snapshot, pinned []byte) error {
	if pinned == nil {
		return nil
	}
	return s.underCentralKey(ctx, func() error {
		if err := s.ver.VerifySigned(snap.KeyVersion, snap.RootSig, pinned); err != nil {
			return fmt.Errorf("edge: snapshot root signature rejected: %w", err)
		}
		return nil
	})
}

// verifyAlignedStores cross-checks the shard stores against the map they
// are about to be published with: each store's root signature must
// authenticate, under the central key, exactly the root digest the
// verified map pins for that shard — one signature check per shard, and
// none for a binding the verifier's cache has already proven (a pinned
// snapshot's, say). The central pays nothing comparable: it signs a root
// only when a replica first pulls it, and reads the digest from its tree.
// This is the binding fetchSnapshot defers when a racing commit leaves a
// central snapshot ahead of the map it was pulled with.
func (s *Server) verifyAlignedStores(ctx context.Context, sm *shardmap.Signed, stores []*storage.PageStore) error {
	heads := make([]*vbtree.TableState, len(stores))
	for i, store := range stores {
		st, err := storeState(store)
		if err != nil {
			return err
		}
		heads[i] = st
	}
	return s.underCentralKey(ctx, func() error {
		for i, st := range heads {
			if err := s.ver.VerifySigned(st.KeyVersion, st.RootSig, sm.Map.Shards[i].RootDigest); err != nil {
				return fmt.Errorf("edge: shard %d of %q: root signature does not authenticate the digest its signed map pins: %w", i, sm.Map.Table, err)
			}
		}
		return nil
	})
}

// Version reports a replica's update version (the shard-map version).
func (s *Server) Version(tableName string) (uint64, error) {
	rep := s.replica(tableName)
	if rep == nil {
		return 0, wire.UnknownTable("edge", tableName)
	}
	set := rep.set.Load()
	if set == nil {
		return 0, errors.New("edge: replica has no published set")
	}
	return set.smap.Map.MapVersion, nil
}

// NumShards reports how many shards a replica carries.
func (s *Server) NumShards(tableName string) (int, error) {
	rep := s.replica(tableName)
	if rep == nil {
		return 0, wire.UnknownTable("edge", tableName)
	}
	set := rep.set.Load()
	if set == nil {
		return 0, errors.New("edge: replica has no published set")
	}
	return len(set.shards), nil
}

// SignedShardMap returns the verified shard map the edge would serve a
// client for this table.
func (s *Server) SignedShardMap(tableName string) (*shardmap.Signed, error) {
	rep := s.replica(tableName)
	if rep == nil {
		return nil, wire.UnknownTable("edge", tableName)
	}
	set := rep.set.Load()
	if set == nil {
		return nil, errors.New("edge: replica has no published set")
	}
	return set.smap, nil
}

// RunShardQuery executes a compiled query against one shard, with the VO
// anchored at the shard's root so clients can bind it to the signed
// shard map returned alongside: the answer the wire path builds in place,
// decoded from a buffer private to this call. It is a shim for the
// benchmark harness, which times the edge through it (ROADMAP 9(0)).
func (s *Server) RunShardQuery(ctx context.Context, tableName string, idx uint32, q vbtree.Query) (*vo.ResultSet, *vo.VO, *shardmap.Signed, error) {
	body, set, err := s.appendAnswer(ctx, nil, tableName, idx, q)
	if err != nil {
		return nil, nil, nil, err
	}
	rs, w, err := vo.DecodeAnswer(body)
	if err != nil {
		return nil, nil, nil, err
	}
	return rs, w, set.smap, nil //vetauth:ignore trustflow not wire input: the bytes decoded are the answer this edge just built from its own verified replica
}

// appendAnswer runs q against one shard of the current set and appends
// the answer (vo.AppendAnswer's layout) to dst, returning the set it was
// answered under. The query runs on the view the set built over the
// shard's snapshot when it pinned it (shardReplica.view); the request adds
// only its own pin, held from the first page read to the last byte
// copied: the traversal reads keys, digests and heap records in place on
// the snapshot's pages, and dst holds no reference to them once this
// returns.
func (s *Server) appendAnswer(ctx context.Context, dst []byte, tableName string, idx uint32, q vbtree.Query) ([]byte, *tableSet, error) {
	rep, err := s.servingReplica(tableName)
	if err != nil {
		return nil, nil, err
	}
	set, sr, err := rep.pinShard(int(idx))
	if err != nil {
		if errors.Is(err, errShardRange) {
			return nil, nil, wire.ShardMoved(tableName, err.Error())
		}
		return nil, nil, err
	}
	defer sr.snap.Release()
	out, voBytes, err := sr.view.AppendAnswer(ctx, q, dst)
	if err != nil {
		return nil, nil, err
	}
	s.stats.queriesServed.Add(1)
	s.stats.voBytes.Add(uint64(voBytes))
	return out, set, nil
}

// servingReplica resolves the replica a query on tableName is answered
// from, refusing one that has diverged.
func (s *Server) servingReplica(tableName string) (*replica, error) {
	rep := s.replica(tableName)
	if rep == nil {
		return nil, wire.UnknownTable("edge", tableName)
	}
	if rep.diverged.Load() {
		return nil, wire.StaleReplica(tableName,
			fmt.Sprintf("edge: replica of %q descends from a dead table incarnation; refresh must install a snapshot first", tableName))
	}
	return rep, nil
}

// answerQuery answers a decoded shard query whose request bytes are body,
// appending the response to out: from the memo of the replica's current
// set when that set has answered the same bytes before, by a walk
// otherwise. A walk's answer is memoized by the set it was built under,
// which may be newer than the one the lookup missed in: no set holds
// another's answers.
func (s *Server) answerQuery(ctx context.Context, req *wire.ShardQueryRequest, body, out []byte) ([]byte, error) {
	rep, err := s.servingReplica(req.Query.Table)
	if err != nil {
		return nil, err
	}
	set := rep.set.Load()
	if set != nil {
		if resp, voBytes, ok := set.appendMemoized(out, body, req.Shard); ok {
			s.stats.answerMemoHits.Add(1)
			s.stats.queriesServed.Add(1)
			s.stats.voBytes.Add(uint64(voBytes))
			return resp, nil
		}
	}
	s.stats.answerMemoMisses.Add(1)
	q, err := s.compile(req.Query)
	if err != nil {
		return nil, err
	}
	return wire.AppendShardQueryResponse(out, func(dst []byte) ([]byte, []byte, error) {
		at := len(dst)
		dst, under, err := s.appendAnswer(ctx, dst, req.Query.Table, req.Shard, q)
		if err != nil {
			return nil, nil, err
		}
		under.memoize(body, dst[at:])
		return dst, under.smapBytes, nil
	})
}

// Schema returns a replica's schema.
func (s *Server) Schema(tableName string) (*schema.Schema, error) {
	rep := s.replica(tableName)
	if rep == nil {
		return nil, wire.UnknownTable("edge", tableName)
	}
	return rep.sch, nil
}

// Serve accepts client connections until the listener closes.
func (s *Server) Serve(l net.Listener) { s.srv.Serve(l) }

// Close stops serving (listeners and live client connections) and drops
// the central connection, reporting a connection that failed to close
// cleanly. Close is idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() { s.closeErr = s.doClose() })
	return s.closeErr
}

func (s *Server) doClose() error {
	s.srv.Close()
	var errs []error
	if err := s.central.Close(); err != nil {
		errs = append(errs, fmt.Errorf("edge: closing central connection: %w", err))
	}
	if err := s.peers.Close(); err != nil {
		errs = append(errs, fmt.Errorf("edge: closing peer connections: %w", err))
	}
	return errors.Join(errs...)
}

// Handler is the honest edge's request handler: what Serve answers
// clients and downstream peers with, for a proxy to serve in its place.
func (s *Server) Handler() rpc.Handler { return s.dispatch }

// serve is dispatch, with every shard answer passed through SetTamper's
// hook while one is installed.
func (s *Server) serve(ctx context.Context, mt wire.MsgType, body, out []byte) (wire.MsgType, []byte, error) {
	rmt, resp, err := s.dispatch(ctx, mt, body, out)
	fn := s.tamper.Load()
	if err != nil || fn == nil || *fn == nil || rmt != wire.MsgShardQueryResp {
		return rmt, resp, err
	}
	sq, err := wire.DecodeShardQueryResponse(resp)
	if err == nil {
		err = (*fn)(sq.Resp.Result, sq.Resp.VO)
	}
	if err != nil {
		return 0, nil, err
	}
	return rmt, sq.Encode(), nil
}

// dispatch executes one client request and returns the response frame.
// It must be safe for concurrent use: connections run requests in
// parallel (queries read pinned snapshots, so they interleave freely
// with delta application). ctx is the connection's context — cancelled
// when the client disconnects, which aborts traversal mid-query. out is
// the buffer the connection lends for the response (see rpc.Handler): a
// shard answer is built in it.
func (s *Server) dispatch(ctx context.Context, mt wire.MsgType, body, out []byte) (wire.MsgType, []byte, error) {
	switch mt {
	case wire.MsgListTablesReq:
		return wire.MsgListTablesResp, wire.EncodeStringList(s.Tables()), nil

	case wire.MsgShardMapReq:
		sm, err := s.SignedShardMap(string(body))
		if err != nil {
			return 0, nil, err
		}
		return wire.MsgShardMapResp, sm.Encode(), nil

	case wire.MsgShardQueryReq:
		req, err := wire.DecodeShardQueryRequest(body)
		if err != nil {
			return 0, nil, err
		}
		resp, err := s.answerQuery(ctx, req, body, out)
		return wire.MsgShardQueryResp, resp, err

	case wire.MsgShardSnapshotReq, wire.MsgShardDeltaReq:
		// The peer distribution tier: edges replicating the same tables
		// pull their refresh traffic from here (see peers.go).
		return s.servePeer(mt, body)

	default:
		return 0, nil, wire.Unsupported("edge", mt)
	}
}

// compile resolves a wire query request against the table's schema.
func (s *Server) compile(req *wire.QueryRequest) (vbtree.Query, error) {
	rep := s.replica(req.Table)
	if rep == nil {
		return vbtree.Query{}, wire.UnknownTable("edge", req.Table)
	}
	spec := query.Spec{Predicates: req.Predicates}
	if !req.ProjectAll {
		spec.Project = req.Project
	}
	q, err := query.Compile(rep.sch, spec)
	if err != nil {
		// A query the schema refuses is the caller's mistake.
		return q, &wire.WireError{Code: wire.CodeBadRequest, Table: req.Table, Msg: "edge: " + err.Error()}
	}
	return q, nil
}
