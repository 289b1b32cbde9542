package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// PageReader is the immutable page-read interface the query path runs
// over: a view of the page space that never changes under the reader's
// feet. Snapshot implements it over a frozen version; BufferPool
// implements it over the live (caller-synchronized) pool.
type PageReader interface {
	// PageSize returns the fixed page size in bytes.
	PageSize() int
	// View returns the page's content without copying. The returned slice
	// aliases the reader's internal buffer and must not be modified; it
	// stays valid for as long as the reader itself (for a Snapshot, until
	// the pin is released).
	View(id PageID) ([]byte, error)
}

// Snapshot is one immutable version of a table's page space. Readers pin
// it with PageStore.Acquire, traverse it without any locking — concurrent
// refreshes publish successor snapshots instead of mutating pages in
// place — and Release it when done. When the last pin on a superseded
// snapshot drops, the page buffers it no longer shares with its successor
// are recycled back into the store's free pool.
type Snapshot struct {
	store   *PageStore
	version uint64
	pages   [][]byte // index = PageID; nil = allocated-but-unwritten (zero) page
	meta    any

	refs atomic.Int64
	next *Snapshot // successor in publish order, set under store.mu
}

// Version returns the snapshot's publish sequence number (0 for the
// store's initial empty snapshot).
func (s *Snapshot) Version() uint64 { return s.version }

// Meta returns the caller-supplied metadata published with the snapshot
// (e.g. the tree anchor that makes the page space interpretable).
func (s *Snapshot) Meta() any { return s.meta }

// PageSize implements PageReader.
func (s *Snapshot) PageSize() int { return s.store.pageSize }

// NumPages returns the number of allocated pages, including page 0.
func (s *Snapshot) NumPages() int { return len(s.pages) }

// View implements PageReader. Allocated-but-never-written pages read as
// zeroes, matching pager semantics.
func (s *Snapshot) View(id PageID) ([]byte, error) {
	if int(id) >= len(s.pages) {
		return nil, fmt.Errorf("storage: snapshot read of unallocated page %d", id)
	}
	if s.pages[id] == nil {
		return s.store.zero, nil
	}
	return s.pages[id], nil
}

// tryRef pins the snapshot unless it has already fully drained (a drained
// snapshot may be mid-recycle and must not be revived).
func (s *Snapshot) tryRef() bool {
	for {
		n := s.refs.Load()
		if n <= 0 {
			return false
		}
		if s.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Retain adds a pin to an already-pinned snapshot — the RCU pattern
// where a publisher holds one pin for the snapshot's tenure as "current"
// and readers take their own short-lived pins from it. Returns false if
// the snapshot has fully drained (the publisher released it between the
// reader's load and this call); the reader then reloads the current
// pointer. Every successful Retain must be paired with a Release.
func (s *Snapshot) Retain() bool { return s.tryRef() }

// Release drops one pin. Exactly one Release per Acquire.
func (s *Snapshot) Release() {
	if n := s.refs.Add(-1); n == 0 {
		s.store.sweep()
	} else if n < 0 {
		panic("storage: snapshot released more times than acquired")
	}
}

// PageStore holds the versioned snapshot chain of one table replica. The
// current snapshot is published behind a single atomic pointer, so
// Acquire is lock-free; refreshes build a successor off to the side with
// Begin/Publish. Writers (Begin/Publish callers) must serialize among
// themselves — readers never block them and vice versa.
type PageStore struct {
	pageSize int
	zero     []byte // shared all-zero page for allocated-but-unwritten ids
	current  atomic.Pointer[Snapshot]

	mu     sync.Mutex // guards oldest/free/stats, not the read path
	oldest *Snapshot
	free   [][]byte
	// stats
	allocated, recycled uint64
}

// maxFreeBuffers bounds the recycle pool so a burst of retained snapshots
// does not pin memory forever.
const maxFreeBuffers = 4096

// NewPageStore creates a store whose current snapshot is the empty page
// space (page 0 reserved, as with pagers).
func NewPageStore(pageSize int) (*PageStore, error) {
	if pageSize < MinPageSize {
		return nil, fmt.Errorf("storage: page size %d below minimum %d", pageSize, MinPageSize)
	}
	ps := &PageStore{pageSize: pageSize, zero: make([]byte, pageSize)}
	s := &Snapshot{store: ps, pages: make([][]byte, 1)}
	s.refs.Store(1) // the store's own pin on the current snapshot
	ps.current.Store(s)
	ps.oldest = s
	return ps, nil
}

// PageSize returns the fixed page size in bytes.
func (ps *PageStore) PageSize() int { return ps.pageSize }

// Acquire pins and returns the current snapshot. It never blocks: the
// store pointer is read atomically and the pin is a CAS loop. Callers
// must Release exactly once.
func (ps *PageStore) Acquire() *Snapshot {
	for {
		s := ps.current.Load()
		if s.tryRef() {
			return s
		}
		// The snapshot was superseded and drained between the load and
		// the pin attempt; the pointer has already moved on.
	}
}

// Stats reports buffer-lifecycle counters: fresh allocations and buffers
// reclaimed from drained snapshots into the free pool.
func (ps *PageStore) Stats() (allocated, recycled uint64) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.allocated, ps.recycled
}

// getBuf hands out a page buffer, reusing drained snapshots' buffers.
func (ps *PageStore) getBuf() []byte {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if n := len(ps.free); n > 0 {
		buf := ps.free[n-1]
		ps.free = ps.free[:n-1]
		return buf
	}
	ps.allocated++
	return make([]byte, ps.pageSize)
}

// poisonOnRecycle is the test mode SetPoisonOnRecycle switches.
var poisonOnRecycle atomic.Bool

// poisonByte fills a recycled buffer in the poison-on-recycle test mode:
// a page type no decoder accepts and a slot count no page can hold.
const poisonByte = 0xDB

// SetPoisonOnRecycle switches the poison-on-recycle test mode for every
// PageStore in the process and returns the previous setting. While on, a
// page buffer is overwritten with 0xDB the moment its last snapshot
// drains, so a page view that outlived its pin reads garbage at once —
// and, under the race detector, is reported as a race with the
// overwrite — where it would otherwise read stale but well-formed bytes
// until the buffer happened to be reused.
func SetPoisonOnRecycle(on bool) (was bool) { return poisonOnRecycle.Swap(on) }

func (ps *PageStore) putBufLocked(buf []byte) {
	ps.recycled++
	if poisonOnRecycle.Load() {
		for i := range buf {
			buf[i] = poisonByte
		}
	}
	if len(ps.free) < maxFreeBuffers {
		ps.free = append(ps.free, buf)
	}
}

// sweep recycles the page buffers of fully released snapshots. A buffer
// introduced at version k is shared by snapshots k..m-1 (where m next
// overwrote the page), so it is dead exactly when the oldest live
// snapshot has moved past m-1 — hence the oldest-first cascade.
func (ps *PageStore) sweep() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for ps.oldest != nil && ps.oldest.next != nil && ps.oldest.refs.Load() == 0 {
		s, n := ps.oldest, ps.oldest.next
		for id := 1; id < len(s.pages); id++ {
			buf := s.pages[id]
			if buf == nil {
				continue
			}
			if id < len(n.pages) && n.pages[id] != nil && &n.pages[id][0] == &buf[0] {
				continue // still shared with the successor
			}
			ps.putBufLocked(buf)
		}
		s.pages = nil
		ps.oldest = n
	}
}

// Overlay is a copy-on-write builder for the successor of the snapshot
// that was current at Begin. A refresh writes the changed pages into the
// overlay (originals stay untouched), then seals and publishes the result
// with a single atomic pointer swap. At most one overlay may be open per
// store at a time; Publish panics if the base was superseded, which would
// silently drop the intervening version's changes.
type Overlay struct {
	ps       *PageStore
	base     *Snapshot
	writes   map[PageID][]byte
	numPages int
	done     bool
}

// Begin pins the current snapshot as the overlay's base.
func (ps *PageStore) Begin() *Overlay {
	base := ps.Acquire()
	return &Overlay{
		ps:       ps,
		base:     base,
		writes:   make(map[PageID][]byte),
		numPages: base.NumPages(),
	}
}

// Base returns the pinned snapshot the overlay builds on (e.g. to read
// the predecessor's metadata). Valid until Publish or Abort.
func (o *Overlay) Base() *Snapshot { return o.base }

// PageSize returns the fixed page size in bytes.
func (o *Overlay) PageSize() int { return o.ps.pageSize }

// NumPages returns the successor's page count so far.
func (o *Overlay) NumPages() int { return o.numPages }

// Allocate extends the page space by one zeroed page and returns its id.
func (o *Overlay) Allocate() PageID {
	if o.done {
		panic("storage: allocate on sealed overlay")
	}
	id := PageID(o.numPages)
	o.numPages++
	return id
}

// WritePage stages new content for a page of the successor snapshot. The
// data is copied into a (possibly recycled) buffer owned by the overlay.
func (o *Overlay) WritePage(id PageID, data []byte) error {
	if o.done {
		return fmt.Errorf("storage: write on sealed overlay")
	}
	if id == 0 || int(id) >= o.numPages {
		return fmt.Errorf("storage: overlay write of page %d outside [1,%d)", id, o.numPages)
	}
	if len(data) != o.ps.pageSize {
		return fmt.Errorf("storage: overlay write of %d bytes, want %d", len(data), o.ps.pageSize)
	}
	buf, ok := o.writes[id]
	if !ok {
		buf = o.ps.getBuf()
		o.writes[id] = buf
	}
	copy(buf, data)
	return nil
}

// View implements PageReader over the overlay's read-through state:
// staged writes first, then the base snapshot, then zeroes for freshly
// allocated pages.
func (o *Overlay) View(id PageID) ([]byte, error) {
	if buf, ok := o.writes[id]; ok {
		return buf, nil
	}
	if int(id) < o.base.NumPages() {
		return o.base.View(id)
	}
	if int(id) < o.numPages {
		return o.ps.zero, nil
	}
	return nil, fmt.Errorf("storage: overlay read of unallocated page %d", id)
}

// Publish seals the overlay into an immutable snapshot, installs it as
// current with one atomic pointer swap, and returns it. Unchanged pages
// share buffers with the base; readers pinned to older snapshots keep
// seeing their version until they release. The overlay is consumed.
func (o *Overlay) Publish(meta any) *Snapshot {
	if o.done {
		panic("storage: publish on sealed overlay")
	}
	o.done = true
	ps := o.ps
	pages := make([][]byte, o.numPages)
	copy(pages, o.base.pages)
	for id, buf := range o.writes {
		pages[id] = buf
	}
	s := &Snapshot{store: ps, version: o.base.version + 1, pages: pages, meta: meta}
	s.refs.Store(1) // the store's pin, replacing the one on the base
	ps.mu.Lock()
	prev := ps.current.Load()
	if prev != o.base {
		ps.mu.Unlock()
		panic("storage: overlay base superseded; writers must serialize Begin/Publish")
	}
	prev.next = s
	ps.current.Store(s)
	ps.mu.Unlock()
	prev.Release()   // store pin moves to the successor
	o.base.Release() // overlay pin
	return s
}

// Abort discards the overlay, recycling its staged buffers.
func (o *Overlay) Abort() {
	if o.done {
		return
	}
	o.done = true
	o.ps.mu.Lock()
	for _, buf := range o.writes {
		o.ps.putBufLocked(buf)
	}
	o.ps.mu.Unlock()
	o.writes = nil
	o.base.Release()
}
