package storage

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// DefaultPoolFrames is the default buffer-pool capacity.
const DefaultPoolFrames = 1024

// Frame is a pinned page in the buffer pool. Callers must Unpin exactly
// once per Fetch/NewPage; writers mark the frame dirty via
// Unpin(…, true) or MarkDirty.
type Frame struct {
	id    PageID
	buf   []byte
	pins  int
	dirty bool
	elem  *list.Element // position in LRU list when unpinned
}

// ID returns the page id of the framed page.
func (f *Frame) ID() PageID { return f.id }

// Page returns a slotted-page view over the frame's buffer.
func (f *Frame) Page() Page { return AsPage(f.buf) }

// BufferPool caches pages over a Pager with LRU replacement of unpinned
// frames. It is safe for concurrent use; page-content synchronization is
// the caller's concern (the lock manager handles logical locking).
type BufferPool struct {
	mu     sync.Mutex
	pager  Pager
	cap    int
	frames map[PageID]*Frame
	lru    *list.List // of PageID; front = most recently unpinned

	// journal, when non-nil, records every page id dirtied through the
	// pool since the last DrainJournal — the page-level changelog the
	// central server turns into delta updates for edge replicas.
	journal map[PageID]struct{}

	// stats
	hits, misses, evictions uint64
}

// NewBufferPool wraps pager with an LRU cache of at most frames pages.
// frames is a cap, not a size hint: the frame table grows with the pages
// actually cached, so a generous cap over a small table costs nothing.
func NewBufferPool(pager Pager, frames int) (*BufferPool, error) {
	if frames < 1 {
		return nil, fmt.Errorf("storage: buffer pool needs at least 1 frame, got %d", frames)
	}
	return &BufferPool{
		pager:  pager,
		cap:    frames,
		frames: make(map[PageID]*Frame),
		lru:    list.New(),
	}, nil
}

// Pager returns the underlying pager.
func (bp *BufferPool) Pager() Pager { return bp.pager }

// PageSize returns the page size of the underlying pager.
func (bp *BufferPool) PageSize() int { return bp.pager.PageSize() }

// ErrPoolExhausted is returned when every frame is pinned and a new page is
// requested.
var ErrPoolExhausted = errors.New("storage: all buffer pool frames pinned")

// View implements PageReader over the live pool: it faults the page in
// and returns its frame buffer without copying. Frame buffers are never
// reused after eviction (eviction writes back and drops the frame), so
// the slice stays valid; callers must provide their own synchronization
// against writers mutating the page, exactly as with Fetch.
func (bp *BufferPool) View(id PageID) ([]byte, error) {
	f, err := bp.Fetch(id)
	if err != nil {
		return nil, err
	}
	bp.Unpin(f, false)
	return f.buf, nil
}

// Fetch pins the page with the given id, reading it from the pager on miss.
func (bp *BufferPool) Fetch(id PageID) (*Frame, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f, ok := bp.frames[id]; ok {
		bp.hits++
		if f.pins == 0 && f.elem != nil {
			bp.lru.Remove(f.elem)
			f.elem = nil
		}
		f.pins++
		return f, nil
	}
	bp.misses++
	f, err := bp.allocFrameLocked(id)
	if err != nil {
		return nil, err
	}
	if err := bp.pager.ReadPage(id, f.buf); err != nil {
		delete(bp.frames, id)
		return nil, err
	}
	return f, nil
}

// NewPage allocates a fresh page in the pager, pins it, and formats it with
// the given type.
func (bp *BufferPool) NewPage(t PageType) (*Frame, error) {
	id, err := bp.pager.Allocate()
	if err != nil {
		return nil, err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, err := bp.allocFrameLocked(id)
	if err != nil {
		return nil, err
	}
	InitPage(f.buf, t)
	f.dirty = true
	bp.recordLocked(id)
	return f, nil
}

// EnableJournal starts recording dirtied page ids. Pages dirtied before
// the call are not recorded.
func (bp *BufferPool) EnableJournal() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.journal == nil {
		bp.journal = make(map[PageID]struct{})
	}
}

// DrainJournal returns the page ids dirtied since the previous drain, in
// ascending order, and resets the journal. It returns nil when the
// journal is disabled or empty.
func (bp *BufferPool) DrainJournal() []PageID {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if len(bp.journal) == 0 {
		return nil
	}
	out := make([]PageID, 0, len(bp.journal))
	for id := range bp.journal {
		out = append(out, id)
	}
	bp.journal = make(map[PageID]struct{})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (bp *BufferPool) recordLocked(id PageID) {
	if bp.journal != nil {
		bp.journal[id] = struct{}{}
	}
}

// allocFrameLocked finds or evicts a frame for id and pins it once.
func (bp *BufferPool) allocFrameLocked(id PageID) (*Frame, error) {
	if len(bp.frames) >= bp.cap {
		if err := bp.evictLocked(); err != nil {
			return nil, err
		}
	}
	f := &Frame{id: id, buf: make([]byte, bp.pager.PageSize()), pins: 1}
	bp.frames[id] = f
	return f, nil
}

// evictLocked writes back and drops the least recently used unpinned frame.
func (bp *BufferPool) evictLocked() error {
	elem := bp.lru.Back()
	if elem == nil {
		return ErrPoolExhausted
	}
	id := elem.Value.(PageID)
	f := bp.frames[id]
	if f.dirty {
		if err := bp.pager.WritePage(id, f.buf); err != nil {
			return fmt.Errorf("storage: evicting page %d: %w", id, err)
		}
	}
	bp.lru.Remove(elem)
	delete(bp.frames, id)
	bp.evictions++
	return nil
}

// Unpin releases one pin; dirty marks the frame as modified.
func (bp *BufferPool) Unpin(f *Frame, dirty bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if dirty {
		f.dirty = true
		bp.recordLocked(f.id)
	}
	if f.pins <= 0 {
		panic(fmt.Sprintf("storage: unpin of unpinned page %d", f.id))
	}
	f.pins--
	if f.pins == 0 {
		f.elem = bp.lru.PushFront(f.id)
	}
}

// MarkDirty flags a pinned frame as modified.
func (bp *BufferPool) MarkDirty(f *Frame) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f.dirty = true
	bp.recordLocked(f.id)
}

// FlushAll writes every dirty frame back to the pager and syncs it.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	for id, f := range bp.frames {
		if f.dirty {
			if err := bp.pager.WritePage(id, f.buf); err != nil {
				bp.mu.Unlock()
				return fmt.Errorf("storage: flushing page %d: %w", id, err)
			}
			f.dirty = false
		}
	}
	bp.mu.Unlock()
	return bp.pager.Sync()
}

// Stats reports hit/miss/eviction counters.
func (bp *BufferPool) Stats() (hits, misses, evictions uint64) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.hits, bp.misses, bp.evictions
}
