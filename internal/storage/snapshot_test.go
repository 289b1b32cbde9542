package storage

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func pagePattern(size int, fill byte) []byte {
	return bytes.Repeat([]byte{fill}, size)
}

func TestPageStorePublishAndIsolation(t *testing.T) {
	ps, err := NewPageStore(256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPageStore(16); err == nil {
		t.Fatal("tiny page size accepted")
	}

	// Version 1: two pages.
	ov := ps.Begin()
	p1, p2 := ov.Allocate(), ov.Allocate()
	if p1 != 1 || p2 != 2 {
		t.Fatalf("allocated ids %d,%d", p1, p2)
	}
	if err := ov.WritePage(p1, pagePattern(256, 0xA1)); err != nil {
		t.Fatal(err)
	}
	if err := ov.WritePage(p2, pagePattern(256, 0xA2)); err != nil {
		t.Fatal(err)
	}
	s1 := ov.Publish("v1")
	if s1.Version() != 1 || s1.NumPages() != 3 || s1.Meta() != "v1" {
		t.Fatalf("published snapshot: v=%d pages=%d meta=%v", s1.Version(), s1.NumPages(), s1.Meta())
	}

	// A reader pins v1, then v2 overwrites page 1 underneath it.
	reader := ps.Acquire()
	defer reader.Release()
	ov = ps.Begin()
	if err := ov.WritePage(1, pagePattern(256, 0xB1)); err != nil {
		t.Fatal(err)
	}
	p3 := ov.Allocate()
	ov.Publish("v2")

	got, err := reader.View(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pagePattern(256, 0xA1)) {
		t.Fatal("pinned snapshot saw a later version's write")
	}
	cur := ps.Acquire()
	defer cur.Release()
	if cur.Version() != 2 {
		t.Fatalf("current version %d, want 2", cur.Version())
	}
	got, err = cur.View(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pagePattern(256, 0xB1)) {
		t.Fatal("current snapshot missing the v2 write")
	}
	// Unwritten allocated pages read as zeroes; shared pages alias.
	if z, err := cur.View(p3); err != nil || !bytes.Equal(z, make([]byte, 256)) {
		t.Fatalf("allocated-but-unwritten page: %v", err)
	}
	a, _ := reader.View(2)
	b, _ := cur.View(2)
	if &a[0] != &b[0] {
		t.Fatal("unchanged page not shared between versions")
	}
	if _, err := cur.View(99); err == nil {
		t.Fatal("out-of-range view accepted")
	}
}

func TestOverlayValidation(t *testing.T) {
	ps, err := NewPageStore(256)
	if err != nil {
		t.Fatal(err)
	}
	ov := ps.Begin()
	if err := ov.WritePage(0, pagePattern(256, 1)); err == nil {
		t.Fatal("write to page 0 accepted")
	}
	if err := ov.WritePage(5, pagePattern(256, 1)); err == nil {
		t.Fatal("write past the page space accepted")
	}
	id := ov.Allocate()
	if err := ov.WritePage(id, []byte("short")); err == nil {
		t.Fatal("short write accepted")
	}
	if err := ov.WritePage(id, pagePattern(256, 7)); err != nil {
		t.Fatal(err)
	}
	// Read-through: staged write wins, base pages visible, fresh pages zero.
	if b, err := ov.View(id); err != nil || b[0] != 7 {
		t.Fatalf("overlay read-through of staged write: %v", err)
	}
	id2 := ov.Allocate()
	if b, err := ov.View(id2); err != nil || b[0] != 0 {
		t.Fatalf("overlay read-through of fresh page: %v", err)
	}
	ov.Abort()
	if err := ov.WritePage(id, pagePattern(256, 7)); err == nil {
		t.Fatal("write after abort accepted")
	}
	// Abort must have dropped the overlay's base pin.
	if s := ps.Acquire(); s.Version() != 0 {
		t.Fatalf("version %d after aborted overlay", s.Version())
	} else {
		s.Release()
	}
}

// TestSnapshotBufferRecycling checks the refcounted release path: once the
// last pin on a superseded snapshot drops, the buffers it no longer shares
// with its successor return to the store's pool and satisfy later writes
// without fresh allocation.
func TestSnapshotBufferRecycling(t *testing.T) {
	ps, err := NewPageStore(256)
	if err != nil {
		t.Fatal(err)
	}
	ov := ps.Begin()
	id := ov.Allocate()
	if err := ov.WritePage(id, pagePattern(256, 1)); err != nil {
		t.Fatal(err)
	}
	ov.Publish(nil)

	old := ps.Acquire()
	for v := byte(2); v <= 4; v++ {
		ov = ps.Begin()
		if err := ov.WritePage(id, pagePattern(256, v)); err != nil {
			t.Fatal(err)
		}
		ov.Publish(nil)
	}
	// v1..v3's buffers for the page are all superseded, but v1 is still
	// pinned, so nothing may be recycled yet.
	if _, recycled := ps.Stats(); recycled != 0 {
		t.Fatalf("recycled %d buffers while a pin was held", recycled)
	}
	if b, err := old.View(id); err != nil || b[0] != 1 {
		t.Fatalf("pinned snapshot corrupted: %v", err)
	}
	old.Release()
	allocBefore, recycled := ps.Stats()
	if recycled != 3 {
		t.Fatalf("recycled %d buffers after release, want 3 (v1..v3's private pages)", recycled)
	}
	// The next writes reuse those buffers instead of allocating.
	ov = ps.Begin()
	if err := ov.WritePage(id, pagePattern(256, 9)); err != nil {
		t.Fatal(err)
	}
	ov.Publish(nil)
	allocAfter, _ := ps.Stats()
	if allocAfter != allocBefore {
		t.Fatalf("allocation count grew %d -> %d despite free buffers", allocBefore, allocAfter)
	}
}

// TestPageStoreConcurrentReadersAndPublisher races lock-free readers
// against a publisher; run under -race it proves snapshot isolation:
// every reader observes a page set from exactly one version.
func TestPageStoreConcurrentReadersAndPublisher(t *testing.T) {
	ps, err := NewPageStore(256)
	if err != nil {
		t.Fatal(err)
	}
	const numPages = 8
	ov := ps.Begin()
	for i := 0; i < numPages; i++ {
		id := ov.Allocate()
		if err := ov.WritePage(id, pagePattern(256, 0)); err != nil {
			t.Fatal(err)
		}
	}
	ov.Publish(uint64(0))

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s := ps.Acquire()
				want := s.Meta().(uint64)
				for id := PageID(1); id <= numPages; id++ {
					buf, err := s.View(id)
					if err != nil {
						t.Error(err)
						break
					}
					if uint64(buf[0]) != want%256 || !bytes.Equal(buf, pagePattern(256, buf[0])) {
						t.Errorf("torn read: version %d page %d starts with %d", want, id, buf[0])
						break
					}
				}
				s.Release()
			}
		}()
	}
	for v := uint64(1); v <= 200; v++ {
		ov := ps.Begin()
		for id := PageID(1); id <= numPages; id++ {
			if err := ov.WritePage(id, pagePattern(256, byte(v%256))); err != nil {
				t.Fatal(err)
			}
		}
		ov.Publish(v)
	}
	close(done)
	wg.Wait()
}

// TestHeapReaderOverSnapshot moves a heap file into a snapshot and reads
// it back through the immutable view, overflow chains included.
func TestHeapReaderOverSnapshot(t *testing.T) {
	mem, err := NewMemPager(256)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := NewBufferPool(mem, 64)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHeapFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	small := []byte("inline record")
	large := bytes.Repeat([]byte{0xCD}, 700) // spills into overflow pages
	ridS, err := h.Insert(small)
	if err != nil {
		t.Fatal(err)
	}
	ridL, err := h.Insert(large)
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}

	ps, err := NewPageStore(256)
	if err != nil {
		t.Fatal(err)
	}
	ov := ps.Begin()
	buf := make([]byte, 256)
	for i := 1; i < mem.NumPages(); i++ {
		id := ov.Allocate()
		if err := mem.ReadPage(PageID(i), buf); err != nil {
			t.Fatal(err)
		}
		if err := ov.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	snap := ov.Publish(nil)
	defer snap.Release()
	hr := NewHeapReader(snap)
	if got, err := hr.View(ridS); err != nil || !bytes.Equal(got, small) {
		t.Fatalf("inline record through snapshot: %q, %v", got, err)
	}
	if got, err := hr.View(ridL); err != nil || !bytes.Equal(got, large) {
		t.Fatalf("overflow record through snapshot: %d bytes, %v", len(got), err)
	}
}

// TestDiskPagerReopenAcrossSessions covers the durability path end to
// end: several "refresh versions" of pages and metadata written through a
// buffer pool, the file closed and reopened (twice), and the page space
// extended in a later session — pages and meta must survive each cycle.
func TestDiskPagerReopenAcrossSessions(t *testing.T) {
	path := t.TempDir() + "/versions.db"
	d, err := CreateDiskPager(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := NewBufferPool(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Three versions: each dirties both pages through the pool and stamps
	// the version in the metadata, as a delta-refresh cycle would.
	var ids []PageID
	for i := 0; i < 2; i++ {
		f, err := bp.NewPage(PageHeap)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f.ID())
		bp.Unpin(f, true)
	}
	for v := 1; v <= 3; v++ {
		for i, id := range ids {
			f, err := bp.Fetch(id)
			if err != nil {
				t.Fatal(err)
			}
			copy(f.Page().Bytes()[1:], bytes.Repeat([]byte{byte(16*v + i)}, 64))
			bp.Unpin(f, true)
		}
		if err := d.SetMeta([]byte(fmt.Sprintf("version-%d", v))); err != nil {
			t.Fatal(err)
		}
		if err := bp.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Allocate(); err == nil {
		t.Fatal("allocate on closed disk pager succeeded")
	}

	// Session 2: everything from the last flushed version is visible.
	re, err := OpenDiskPager(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.PageSize() != 512 || re.NumPages() != 3 {
		t.Fatalf("reopened: pageSize=%d numPages=%d", re.PageSize(), re.NumPages())
	}
	meta, err := re.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if string(meta) != "version-3" {
		t.Fatalf("meta after reopen: %q, want version-3", meta)
	}
	buf := make([]byte, 512)
	for i, id := range ids {
		if err := re.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		if want := byte(16*3 + i); buf[1] != want || buf[64] != want {
			t.Fatalf("page %d content after reopen: %x, want %x", id, buf[1], want)
		}
	}
	// Extend the page space in this session; meta must survive Allocate's
	// header rewrite.
	extra, err := re.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := re.WritePage(extra, bytes.Repeat([]byte{0xEE}, 512)); err != nil {
		t.Fatal(err)
	}
	if err := re.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// Session 3: growth and the original versions both persisted.
	re2, err := OpenDiskPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.NumPages() != 4 {
		t.Fatalf("numPages after growth: %d, want 4", re2.NumPages())
	}
	meta, err = re2.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if string(meta) != "version-3" {
		t.Fatalf("meta after second reopen: %q", meta)
	}
	if err := re2.ReadPage(extra, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xEE || buf[511] != 0xEE {
		t.Fatal("page written post-reopen lost")
	}
	if err := re2.ReadPage(ids[0], buf); err != nil {
		t.Fatal(err)
	}
	if buf[1] != byte(16*3) {
		t.Fatal("original page lost after growth session")
	}
}
