package vbtree

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"edgeauth/internal/digest"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
	"edgeauth/internal/vo"
)

// TableState is the immutable per-version metadata a replica publishes
// alongside each storage snapshot: the tree anchor that makes the page
// space queryable plus the replication coordinates the next refresh
// negotiates with. Both the central server's per-commit publishes and
// the edge's delta applies stamp one of these on every version.
type TableState struct {
	Root       storage.PageID
	Height     int
	RootSig    sig.Signature
	HeapPages  []storage.PageID
	KeyVersion uint32
	// Scheme is the signature scheme of the key named by KeyVersion;
	// replicas thread it into the public keys they build for views.
	Scheme  sig.Scheme
	Version uint64
	Epoch   uint64
}

// Validate rejects states that cannot anchor a tree.
func (st *TableState) Validate() error {
	if st.Root == storage.InvalidPageID || st.Height < 1 || len(st.RootSig) == 0 {
		return errors.New("vbtree: invalid published tree metadata")
	}
	return nil
}

// ViewOver assembles the read view of this state over a page space that
// does not change while the view is used: a pinned snapshot (replicas,
// reshard builds). The writer reads its live pool through Tree.Read.
func (st *TableState) ViewOver(pages storage.PageReader, sch *schema.Schema, acc *digest.Accumulator, pub *sig.PublicKey) (*View, error) {
	if pages == nil || sch == nil || acc == nil || pub == nil {
		return nil, errors.New("vbtree: view requires pages, schema, accumulator and key")
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return &View{
		pr:      pages,
		heap:    storage.NewHeapReader(pages),
		sch:     sch,
		acc:     acc,
		pub:     pub,
		now:     unixNow,
		root:    st.Root,
		height:  st.Height,
		rootSig: st.RootSig,
	}, nil
}

// View is the read path of the VB-tree: queries, scans and the audit over
// an immutable page view. Because the pages can never change underneath
// it, a View takes no locks at all — the paper's §3.4 S-lock protocol
// collapses away once queries run against snapshots instead of shared
// mutable pages. A View is safe for concurrent use and meant to be built
// once per published snapshot and shared by the queries that pin it (the
// edge keeps one beside each shard's pin): what it derives from the pages
// alone — the root digest — is computed on first use and kept.
// Constructing one per query is still correct, it just pays for that
// again.
type View struct {
	pr   storage.PageReader
	heap *storage.HeapReader
	sch  *schema.Schema
	acc  *digest.Accumulator
	// pub stamps the VO's key version (edge replicas use a placeholder).
	pub *sig.PublicKey
	// now supplies VO timestamps: the tree's Config.Now for Tree.Read,
	// the wall clock otherwise.
	now    func() int64
	root   storage.PageID
	height int
	// rootSig is the root's signature every VO carries as its RootSig:
	// the state's for ViewOver, none for Tree.Read until Anchored.
	rootSig sig.Signature
	// rootU is the unsigned root digest every VO carries as its
	// TopDigest, nil until the first answer computes it. Read-only once
	// stored.
	rootU atomic.Pointer[digest.Value]
}

// Anchored returns a view of the same pages, on the same clock, whose
// VOs carry rootSig as the root's signature: how the key's owner, which
// signs the root digest itself, ships answers read through Tree.Read.
func (v *View) Anchored(rootSig sig.Signature) *View {
	return &View{pr: v.pr, heap: v.heap, sch: v.sch, acc: v.acc, pub: v.pub,
		now: v.now, root: v.root, height: v.height, rootSig: rootSig}
}

// Clocked returns a view of the same pages and anchor whose VOs are
// stamped by now (Unix seconds) in place of this view's clock.
func (v *View) Clocked(now func() int64) *View {
	c := v.Anchored(v.rootSig)
	c.now = now
	return c
}

// Now reads the clock the view stamps its VOs with, in Unix seconds.
func (v *View) Now() int64 { return v.now() }

// unixNow is the wall clock in Unix seconds, the default VO timestamp.
func unixNow() int64 { return time.Now().Unix() }

// page returns a page of the view. The slice is the reader's own buffer:
// valid until the reader's pages can change (see storage.PageReader).
func (v *View) page(pid storage.PageID) ([]byte, error) {
	return v.pr.View(pid)
}

// loadStored decodes the stored tuple at rid into memory the caller owns.
func (v *View) loadStored(rid storage.RecordID) (*vo.StoredTuple, error) {
	rec, err := v.heap.View(rid)
	if err != nil {
		return nil, err
	}
	return vo.DecodeStoredTuple(append([]byte(nil), rec...))
}

// leafFor descends to the leaf covering key k (the leftmost leaf for a
// nil k) and returns its page.
func (v *View) leafFor(k []byte) ([]byte, error) {
	pid := v.root
	for {
		buf, err := v.page(pid)
		if err != nil {
			return nil, err
		}
		if storage.PageType(buf[0]) != storage.PageVBInternal {
			return buf, nil
		}
		c, err := openInternal(buf)
		if err != nil {
			return nil, err
		}
		if err := c.seek(k); err != nil {
			return nil, err
		}
		pid = c.child
	}
}

// Search returns the stored tuple with the given key, or found=false.
func (v *View) Search(key schema.Datum) (*vo.StoredTuple, bool, error) {
	kb := key.KeyBytes()
	buf, err := v.leafFor(kb)
	if err != nil {
		return nil, false, err
	}
	c, err := openLeaf(buf)
	if err != nil {
		return nil, false, err
	}
	for {
		ok, err := c.advance()
		if err != nil || !ok {
			return nil, false, err
		}
		switch cmp := compare(c.key, kb); {
		case cmp > 0:
			return nil, false, nil
		case cmp == 0:
			st, err := v.loadStored(c.rid)
			return st, err == nil, err
		}
	}
}

// RunQuery executes q and returns the verifiable result: the projected
// tuples and the VO proving them against the root. This is the operation an
// edge server performs for every client query (paper §3.3), in struct
// form: the answer AppendAnswer builds, decoded from a buffer private to
// this call, so the caller owns everything returned. ctx is checked
// between page visits, so a disconnected or cancelled client stops the
// traversal early.
func (v *View) RunQuery(ctx context.Context, q Query) (*vo.ResultSet, *vo.VO, error) {
	body, _, err := v.AppendAnswer(ctx, q, nil)
	if err != nil {
		return nil, nil, err
	}
	return vo.DecodeAnswer(body)
}

// AppendAnswer executes q and appends the verifiable result to dst in
// its wire form (a vo answer: the result set, then the VO). The VO
// proves the answer against the root digest through the ordered envelope
// (see package vo) — one node record per node holding a result row, and
// the root's, each with the in-node proof of the positions it
// recomputes — and carries the root's signature in RootSig. One
// traversal reads keys, digests and heap records in place on the view's
// pages and copies each field the answer carries exactly once, into dst:
// every digest of the proof is copied from a page, entry digests and
// stored group digests alike. So the view's pages must not change before
// AppendAnswer returns (a Snapshot stays pinned across the call); the
// returned buffer holds no reference to them. voBytes is the encoded size
// of the answer's VO.
func (v *View) AppendAnswer(ctx context.Context, q Query, dst []byte) (out []byte, voBytes int, err error) {
	sc := walkScratchPool.Get().(*walkScratch)
	defer sc.recycle()
	w := answerWalk{v: v, ctx: ctx, walkScratch: sc}
	if q.Lo != nil {
		w.lo = q.Lo.KeyBytes()
	}
	if q.Hi != nil {
		w.hi = q.Hi.KeyBytes()
	}
	if w.lo != nil && w.hi != nil && compare(w.lo, w.hi) > 0 {
		return nil, 0, errors.New("vbtree: query range is inverted")
	}
	cols, err := w.resolveProjection(q.Project)
	if err != nil {
		return nil, 0, err
	}
	if _, err := w.walkOrdered(v.root, -1, 0, 0); err != nil {
		return nil, 0, err
	}
	nodes, nDS := w.nodes[:0], 0
	for i := range w.recs {
		r := &w.recs[i]
		runs := w.runs[r.runs:r.runsEnd]
		nodes = vo.AppendNodeRecord(nodes, r.count, runs)
		s := digest.NewShape(r.count)
		nDS += s.Siblings(runs)
	}
	w.nodes = nodes
	w.sizes.DS(nDS)
	u, err := v.rootDigest()
	if err != nil {
		return nil, 0, err
	}
	hdr := vo.VO{
		KeyVersion: v.pub.Version,
		Timestamp:  v.now(),
		TopLevel:   uint8(v.height),
		TopDigest:  u,
		RootSig:    v.rootSig,
		Nodes:      nodes,
	}
	var aw vo.AnswerWriter
	aw.Begin(dst, &vo.ResultSet{DB: v.sch.DB, Table: v.sch.Table, Columns: cols}, &hdr, w.sizes)
	for i := range w.recs {
		w.emitProof(&aw, &w.recs[i])
	}

	stride := len(v.sch.Columns) + 1
	for i, rec := range w.matches {
		// The offsets match found: the record is parsed once.
		sv := vo.StoredViewAt(rec, w.offsets[i*stride:(i+1)*stride])
		aw.Row(sv.Value(v.sch.Key), len(w.proj))
		for _, ci := range w.proj {
			aw.Value(sv.Value(ci))
		}
		// The proof of the attributes projected away -> D_P (paper Figure 7).
		for _, k := range w.dp {
			aw.DP(sv.Digest(k))
		}
	}
	if out, err = aw.Finish(); err != nil {
		return nil, 0, err
	}
	return out, aw.VOBytes(), nil
}

// orderedRec is one node of an ordered envelope as the walk found it.
type orderedRec struct {
	count  int
	groups []byte // its stored group digests, in place
	// Its entry digests, in place, are w.depthDigs[depth][digs:digs+count].
	depth, digs int
	// parent is the record of the node above (-1 for the root), pos this
	// node's position in it.
	parent, pos int
	// runs and runsEnd delimit its positions in the walk's runs.
	runs, runsEnd int
}

// walkOrdered visits the node pid, at position pos under record parent
// (-1: the root) and the given depth, in key order, and reports whether a
// result row lies under it. The node's record joins w.recs, after its
// parent's and before its later siblings'; its entry digests join
// w.depthDigs[depth], where no other node's come between them. A node
// with no row under it takes both back, unless it is the root.
func (w *answerWalk) walkOrdered(pid storage.PageID, parent, pos, depth int) (bool, error) {
	if err := w.ctx.Err(); err != nil {
		return false, err
	}
	buf, err := w.v.page(pid)
	if err != nil {
		return false, err
	}
	if depth == len(w.depthDigs) {
		w.depthDigs = append(w.depthDigs, nil)
	}
	ri, mark, digs := len(w.recs), len(w.runs), len(w.depthDigs[depth])
	w.recs = append(w.recs, orderedRec{parent: parent, pos: pos, depth: depth, digs: digs})
	has := false
	if storage.PageType(buf[0]) == storage.PageVBLeaf {
		c, err := openLeaf(buf)
		if err != nil {
			return false, err
		}
		w.recs[ri].count, w.recs[ri].groups = c.count, c.groups
		for i := 0; ; i++ {
			ok, err := c.advance()
			if err != nil {
				return false, err
			}
			if !ok {
				break
			}
			w.depthDigs[depth] = append(w.depthDigs[depth], c.dig)
			if (w.lo != nil && compare(c.key, w.lo) < 0) || (w.hi != nil && compare(c.key, w.hi) > 0) {
				continue
			}
			if err := w.match(c.rid); err != nil {
				return false, err
			}
			w.addPos(mark, i)
			has = true
		}
	} else {
		c, err := openInternal(buf)
		if err != nil {
			return false, err
		}
		w.recs[ri].count, w.recs[ri].groups = c.count, c.groups
		for i := 0; ; i++ {
			ok, err := c.advance()
			if err != nil {
				return false, err
			}
			if !ok {
				break
			}
			w.depthDigs[depth] = append(w.depthDigs[depth], c.dig)
			if !spanIntersects(c.lo, c.hi, w.lo, w.hi) {
				continue
			}
			sub, err := w.walkOrdered(c.child, ri, i, depth+1)
			if err != nil {
				return false, err
			}
			has = has || sub
		}
		// The positions recomputed here are the children that kept their
		// records; their runs were added meanwhile, so this node's go after.
		mark = len(w.runs)
		for j := ri + 1; j < len(w.recs); j++ {
			if w.recs[j].parent == ri {
				w.addPos(mark, w.recs[j].pos)
			}
		}
	}
	if !has && parent >= 0 {
		clear(w.recs[ri:])
		clear(w.depthDigs[depth][digs:])
		w.recs, w.runs, w.depthDigs[depth] = w.recs[:ri], w.runs[:mark], w.depthDigs[depth][:digs]
		return false, nil
	}
	w.recs[ri].runs, w.recs[ri].runsEnd = mark, len(w.runs)
	return has, nil
}

// addPos adds position i to the runs that begin at w.runs[mark:].
func (w *answerWalk) addPos(mark, i int) { w.runs = digest.AppendRun(w.runs, mark, i) }

// emitProof writes one record's in-node proof to the answer: a stored
// group digest or an entry digest for each subtree it does not recompute.
func (w *answerWalk) emitProof(aw *vo.AnswerWriter, r *orderedRec) {
	s := digest.NewShape(r.count)
	w.sibs = s.AppendSiblings(w.sibs[:0], w.runs[r.runs:r.runsEnd])
	digs := w.depthDigs[r.depth][r.digs : r.digs+r.count]
	size := w.v.acc.Len()
	for _, sb := range w.sibs {
		if sb.L == 0 {
			aw.DS(digs[sb.I])
			continue
		}
		at := s.StoredAt(sb.L, sb.I) * size
		aw.DS(r.groups[at : at+size])
	}
}

// answerWalk is the state of one AppendAnswer traversal. Everything it
// collects is a slice of a page of the view (or, for a record that
// spilled into an overflow chain, of memory the walk owns): nothing is
// copied until AppendAnswer writes the answer out.
type answerWalk struct {
	v      *View
	ctx    context.Context
	lo, hi []byte // closed key range, nil = unbounded

	proj []int // schema index of each returned column, in answer order
	// dp is every row's column proof: the indices, among its heap
	// record's digests, of the ones D_P carries, in the order they travel.
	dp []int

	sizes vo.AnswerSizes

	*walkScratch
}

// walkScratch is what a traversal collects, kept from one AppendAnswer to
// the next so that a point read does not grow it from nothing every time.
type walkScratch struct {
	sv      vo.StoredView
	matches [][]byte // stored-tuple records of the result rows, in key order
	// offsets holds sv's offset table for every record in matches, one
	// after the other, columns+1 entries each.
	offsets []int
	// colRuns is the returned non-key columns, as runs over the column
	// tree's leaves.
	colRuns []byte

	// The envelope's records in pre-order, their runs, the node records as
	// they travel, one record's proof while it is written, and the entry
	// digests of the records at each depth. recs and depthDigs hold no
	// page reference past their lengths: a truncation clears what it cuts
	// off, so recycle has only the lengths to clear.
	recs      []orderedRec
	runs      []byte
	nodes     []byte
	sibs      []digest.Sibling
	depthDigs [][][]byte
}

var walkScratchPool = sync.Pool{New: func() any { return new(walkScratch) }}

// recycle returns the scratch to the pool holding no reference to a
// page: whoever takes it next must not keep this traversal's snapshot
// reachable after its pin is released.
func (sc *walkScratch) recycle() {
	sc.sv = vo.StoredViewAt(nil, sc.sv.Offsets()[:0])
	clear(sc.matches)
	clear(sc.recs)
	for d := range sc.depthDigs {
		clear(sc.depthDigs[d])
		sc.depthDigs[d] = sc.depthDigs[d][:0]
	}
	sc.matches, sc.offsets = sc.matches[:0], sc.offsets[:0]
	sc.recs, sc.runs, sc.nodes, sc.sibs = sc.recs[:0], sc.runs[:0], sc.nodes[:0], sc.sibs[:0]
	sc.colRuns = sc.colRuns[:0]
	walkScratchPool.Put(sc)
}

// resolveProjection maps q.Project to column indices (nil means every
// column), works out the column proof every row of the answer ships in
// D_P — the same for each, since each has the same projection — and
// returns the answer's column names.
func (w *answerWalk) resolveProjection(cols []string) ([]string, error) {
	sch := w.v.sch
	if cols == nil {
		w.proj = make([]int, len(sch.Columns))
		names := make([]string, len(sch.Columns))
		for i, c := range sch.Columns {
			w.proj[i] = i
			names[i] = c.Name
		}
		return names, nil
	}
	if len(cols) == 0 {
		return nil, errors.New("vbtree: empty projection")
	}
	w.proj = make([]int, len(cols))
	taken := make([]bool, len(sch.Columns))
	for i, name := range cols {
		ci := sch.ColumnIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("vbtree: unknown column %q", name)
		}
		if taken[ci] {
			return nil, fmt.Errorf("vbtree: duplicate projected column %q", name)
		}
		taken[ci] = true
		w.proj[i] = ci
	}
	// The column tree's leaves are the non-key columns in schema order; a
	// record stores their attribute digests, then the tree's groups.
	leaves := 0
	for ci, t := range taken {
		if ci == sch.Key {
			continue
		}
		if t {
			w.colRuns = digest.AppendRun(w.colRuns, 0, leaves)
		}
		leaves++
	}
	s := digest.ColumnShape(leaves)
	w.sibs = s.AppendSiblings(w.sibs[:0], w.colRuns)
	w.dp = make([]int, len(w.sibs))
	for i, sb := range w.sibs {
		w.dp[i] = sb.I
		if sb.L > 0 {
			w.dp[i] = leaves + s.StoredAt(sb.L, sb.I)
		}
	}
	return cols, nil
}

// match reads the stored tuple at rid in place: it joins the result,
// with its row and D_P sizes counted.
func (w *answerWalk) match(rid storage.RecordID) error {
	rec, err := w.v.heap.View(rid)
	if err != nil {
		return err
	}
	sv, sch := &w.sv, w.v.sch
	if err := sv.Parse(rec); err != nil {
		return err
	}
	if sv.NumColumns() != len(sch.Columns) {
		return fmt.Errorf("vbtree: stored tuple %v has %d values for %d columns", rid, sv.NumColumns(), len(sch.Columns))
	}
	values := 0
	for _, ci := range w.proj {
		values += len(sv.Value(ci))
	}
	w.sizes.Row(len(sv.Value(sch.Key)), values)
	w.sizes.DP(len(w.dp))
	w.matches = append(w.matches, rec)
	w.offsets = append(w.offsets, sv.Offsets()...)
	return nil
}

// rootDigest computes the root's digest from the root page (one hash
// over its stored top-level digests) once per view: the pages cannot
// change, so neither can the digest. Views racing for the first answer
// each compute the same value; a failed read is not kept.
func (v *View) rootDigest() (digest.Value, error) {
	if u := v.rootU.Load(); u != nil {
		return *u, nil
	}
	buf, err := v.page(v.root)
	if err != nil {
		return nil, err
	}
	u, err := pageDigest(v.acc, v.sch, buf, v.height)
	if err != nil {
		return nil, err
	}
	v.rootU.Store(&u)
	return u, nil
}

// ScanAll returns every stored tuple in key order (a full-table helper for
// examples and tests; not part of the authenticated protocol).
func (v *View) ScanAll() ([]*vo.StoredTuple, error) {
	buf, err := v.leafFor(nil)
	if err != nil {
		return nil, err
	}
	var out []*vo.StoredTuple
	for {
		c, err := openLeaf(buf)
		if err != nil {
			return nil, err
		}
		for {
			ok, err := c.advance()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			st, err := v.loadStored(c.rid)
			if err != nil {
				return nil, err
			}
			out = append(out, st)
		}
		if c.next == storage.InvalidPageID {
			return out, nil
		}
		if buf, err = v.page(c.next); err != nil {
			return nil, err
		}
	}
}
