package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

func TestInitPageLayout(t *testing.T) {
	buf := make([]byte, 256)
	p := InitPage(buf, PageBTreeLeaf)
	if p.Type() != PageBTreeLeaf {
		t.Fatalf("Type = %v", p.Type())
	}
	if p.NumSlots() != 0 {
		t.Fatalf("fresh page has %d slots", p.NumSlots())
	}
	want := 256 - pageHeaderSize - slotSize
	if p.FreeSpace() != want {
		t.Fatalf("FreeSpace = %d, want %d", p.FreeSpace(), want)
	}
	p.SetType(PageVBLeaf)
	if p.Type() != PageVBLeaf {
		t.Fatal("SetType did not stick")
	}
}

func TestPageInsertGetDelete(t *testing.T) {
	p := InitPage(make([]byte, 512), PageHeap)
	cells := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	var slots []int
	for _, c := range cells {
		s, err := p.InsertCell(c)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	for i, s := range slots {
		got, err := p.Cell(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, cells[i]) {
			t.Fatalf("slot %d: got %q, want %q", s, got, cells[i])
		}
	}
	if err := p.DeleteCell(slots[1]); err != nil {
		t.Fatal(err)
	}
	if !p.IsDeleted(slots[1]) {
		t.Fatal("slot not tombstoned")
	}
	if _, err := p.Cell(slots[1]); err == nil {
		t.Fatal("read of deleted cell succeeded")
	}
	if err := p.DeleteCell(slots[1]); err == nil {
		t.Fatal("double delete succeeded")
	}
	if p.LiveCells() != 2 {
		t.Fatalf("LiveCells = %d, want 2", p.LiveCells())
	}
}

func TestPageBoundsChecks(t *testing.T) {
	p := InitPage(make([]byte, 256), PageHeap)
	if _, err := p.Cell(0); err == nil {
		t.Fatal("Cell(0) on empty page succeeded")
	}
	if _, err := p.Cell(-1); err == nil {
		t.Fatal("Cell(-1) succeeded")
	}
	if err := p.DeleteCell(3); err == nil {
		t.Fatal("DeleteCell out of range succeeded")
	}
	if !p.IsDeleted(7) {
		t.Fatal("out-of-range slot should read as deleted")
	}
}

func TestPageFullAndCompact(t *testing.T) {
	p := InitPage(make([]byte, MinPageSize), PageHeap)
	cell := bytes.Repeat([]byte{0xCC}, 20)
	var slots []int
	for {
		s, err := p.InsertCell(cell)
		if err != nil {
			break
		}
		slots = append(slots, s)
	}
	if len(slots) < 3 {
		t.Fatalf("only %d cells fit", len(slots))
	}
	if _, err := p.InsertCell(cell); err != ErrPageFull {
		t.Fatalf("expected ErrPageFull, got %v", err)
	}
	// Delete one, compact, and verify survivors plus regained space.
	if err := p.DeleteCell(slots[0]); err != nil {
		t.Fatal(err)
	}
	before := p.FreeSpace()
	p.Compact()
	if p.FreeSpace() <= before {
		t.Fatalf("Compact did not reclaim space: %d -> %d", before, p.FreeSpace())
	}
	for _, s := range slots[1:] {
		got, err := p.Cell(s)
		if err != nil {
			t.Fatalf("slot %d lost after compact: %v", s, err)
		}
		if !bytes.Equal(got, cell) {
			t.Fatalf("slot %d corrupted after compact", s)
		}
	}
}

func TestPageOversizeCell(t *testing.T) {
	p := InitPage(make([]byte, 256), PageHeap)
	if _, err := p.InsertCell(make([]byte, 1024)); err != ErrPageFull {
		t.Fatalf("oversize insert: %v", err)
	}
}

func testPagers(t *testing.T) map[string]Pager {
	t.Helper()
	mem, err := NewMemPager(512)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := CreateDiskPager(filepath.Join(t.TempDir(), "pages.db"), 512)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mem.Close(); disk.Close() })
	return map[string]Pager{"mem": mem, "disk": disk}
}

func TestPagerAllocateReadWrite(t *testing.T) {
	for name, pg := range testPagers(t) {
		t.Run(name, func(t *testing.T) {
			if pg.NumPages() != 1 {
				t.Fatalf("fresh pager has %d pages, want 1 (meta)", pg.NumPages())
			}
			id, err := pg.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if id != 1 {
				t.Fatalf("first user page id = %d, want 1", id)
			}
			buf := make([]byte, pg.PageSize())
			for i := range buf {
				buf[i] = byte(i)
			}
			if err := pg.WritePage(id, buf); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, pg.PageSize())
			if err := pg.ReadPage(id, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, buf) {
				t.Fatal("page content did not round-trip")
			}
			// Errors on bad arguments.
			if err := pg.ReadPage(99, got); err == nil {
				t.Fatal("read of unallocated page succeeded")
			}
			if err := pg.WritePage(99, buf); err == nil {
				t.Fatal("write of unallocated page succeeded")
			}
			if err := pg.ReadPage(id, make([]byte, 10)); err == nil {
				t.Fatal("short read buffer accepted")
			}
			if err := pg.WritePage(id, make([]byte, 10)); err == nil {
				t.Fatal("short write buffer accepted")
			}
		})
	}
}

func TestPagerMeta(t *testing.T) {
	for name, pg := range testPagers(t) {
		t.Run(name, func(t *testing.T) {
			meta, err := pg.Meta()
			if err != nil {
				t.Fatal(err)
			}
			if len(meta) != 0 {
				t.Fatalf("fresh meta = %d bytes", len(meta))
			}
			want := []byte("root=7;heap=1,2,3")
			if err := pg.SetMeta(want); err != nil {
				t.Fatal(err)
			}
			got, err := pg.Meta()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("meta round trip: got %q", got)
			}
			if err := pg.SetMeta(make([]byte, pg.PageSize())); err == nil {
				t.Fatal("oversized meta accepted")
			}
		})
	}
}

func TestDiskPagerPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persist.db")
	d, err := CreateDiskPager(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte{0x5A}, 512)
	if err := d.WritePage(id, content); err != nil {
		t.Fatal(err)
	}
	if err := d.SetMeta([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDiskPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.PageSize() != 512 || re.NumPages() != 2 {
		t.Fatalf("reopened: pageSize=%d numPages=%d", re.PageSize(), re.NumPages())
	}
	got := make([]byte, 512)
	if err := re.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("page content lost across reopen")
	}
	meta, err := re.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if string(meta) != "hello" {
		t.Fatalf("meta lost across reopen: %q", meta)
	}
}

func TestOpenDiskPagerRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.db")
	if err := writeFile(path, []byte("this is not a page file at all, definitely not")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskPager(path); err == nil {
		t.Fatal("garbage file opened as pager")
	}
	if _, err := OpenDiskPager(filepath.Join(t.TempDir(), "missing.db")); err == nil {
		t.Fatal("missing file opened as pager")
	}
}

func TestPagerClosedOps(t *testing.T) {
	mem, _ := NewMemPager(256)
	mem.Close()
	if _, err := mem.Allocate(); err == nil {
		t.Fatal("Allocate on closed pager succeeded")
	}
	if err := mem.WritePage(0, make([]byte, 256)); err == nil {
		t.Fatal("WritePage on closed pager succeeded")
	}
}

func TestPageSizeValidation(t *testing.T) {
	if _, err := NewMemPager(16); err == nil {
		t.Fatal("tiny page size accepted")
	}
	if _, err := CreateDiskPager(filepath.Join(t.TempDir(), "x.db"), 16); err == nil {
		t.Fatal("tiny page size accepted")
	}
}

func TestBufferPoolFetchCaching(t *testing.T) {
	mem, _ := NewMemPager(256)
	bp, err := NewBufferPool(mem, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := bp.NewPage(PageHeap)
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	if _, err := f.Page().InsertCell([]byte("cached")); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(f, true)

	f2, err := bp.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := f2.Page().Cell(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(cell) != "cached" {
		t.Fatalf("cell = %q", cell)
	}
	bp.Unpin(f2, false)
	hits, misses, _ := bp.Stats()
	if hits != 1 || misses != 0 {
		t.Fatalf("hits=%d misses=%d, want 1/0", hits, misses)
	}
}

func TestBufferPoolEvictionWritesBack(t *testing.T) {
	mem, _ := NewMemPager(256)
	bp, _ := NewBufferPool(mem, 2)
	// Create three pages through a 2-frame pool; the first must be
	// evicted and written back.
	var ids []PageID
	var contents []string
	for i := 0; i < 3; i++ {
		f, err := bp.NewPage(PageHeap)
		if err != nil {
			t.Fatal(err)
		}
		s := fmt.Sprintf("page-%d", i)
		if _, err := f.Page().InsertCell([]byte(s)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f.ID())
		contents = append(contents, s)
		bp.Unpin(f, true)
	}
	_, _, ev := bp.Stats()
	if ev == 0 {
		t.Fatal("no evictions in a 2-frame pool after 3 pages")
	}
	// All pages must read back correctly (possibly from the pager).
	for i, id := range ids {
		f, err := bp.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		cell, err := f.Page().Cell(0)
		if err != nil {
			t.Fatal(err)
		}
		if string(cell) != contents[i] {
			t.Fatalf("page %d: got %q, want %q", id, cell, contents[i])
		}
		bp.Unpin(f, false)
	}
}

func TestBufferPoolExhaustion(t *testing.T) {
	mem, _ := NewMemPager(256)
	bp, _ := NewBufferPool(mem, 2)
	f1, err := bp.NewPage(PageHeap)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := bp.NewPage(PageHeap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bp.NewPage(PageHeap); err == nil {
		t.Fatal("third page allocated with all frames pinned")
	}
	bp.Unpin(f1, false)
	if _, err := bp.NewPage(PageHeap); err != nil {
		t.Fatalf("allocation after unpin failed: %v", err)
	}
	bp.Unpin(f2, false)
}

func TestBufferPoolFlushAll(t *testing.T) {
	mem, _ := NewMemPager(256)
	bp, _ := NewBufferPool(mem, 4)
	f, _ := bp.NewPage(PageHeap)
	if _, err := f.Page().InsertCell([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	bp.Unpin(f, true)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Read directly from the pager, bypassing the pool.
	raw := make([]byte, 256)
	if err := mem.ReadPage(id, raw); err != nil {
		t.Fatal(err)
	}
	cell, err := AsPage(raw).Cell(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(cell) != "durable" {
		t.Fatalf("flushed cell = %q", cell)
	}
}

func TestBufferPoolValidation(t *testing.T) {
	mem, _ := NewMemPager(256)
	if _, err := NewBufferPool(mem, 0); err == nil {
		t.Fatal("zero-frame pool accepted")
	}
}

func TestRecordIDEncoding(t *testing.T) {
	rid := RecordID{Page: 123456, Slot: 789}
	enc := rid.Encode(nil)
	got, err := DecodeRecordID(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != rid {
		t.Fatalf("round trip: got %v, want %v", got, rid)
	}
	if _, err := DecodeRecordID(enc[:3]); err == nil {
		t.Fatal("short record id accepted")
	}
	if rid.String() != "123456:789" {
		t.Fatalf("String = %q", rid.String())
	}
	if (RecordID{}).IsValid() {
		t.Fatal("zero RecordID is valid")
	}
}

func newTestHeap(t *testing.T) *HeapFile {
	t.Helper()
	mem, err := NewMemPager(256)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := NewBufferPool(mem, 8)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHeapFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// readRecord reads the record at rid through a HeapReader over the
// heap's pool, copied out of the page.
func readRecord(h *HeapFile, rid RecordID) ([]byte, error) {
	rec, err := NewHeapReader(h.bp).View(rid)
	return bytes.Clone(rec), err
}

func TestHeapInsertGet(t *testing.T) {
	h := newTestHeap(t)
	recs := make(map[RecordID][]byte)
	for i := 0; i < 50; i++ {
		rec := []byte(fmt.Sprintf("record-%03d", i))
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		recs[rid] = rec
	}
	if len(h.Pages()) < 2 {
		t.Fatal("expected heap to span multiple pages")
	}
	if len(recs) != 50 {
		t.Fatalf("%d distinct record ids for 50 inserts", len(recs))
	}
	for rid, want := range recs {
		got, err := readRecord(h, rid)
		if err != nil {
			t.Fatalf("View(%v): %v", rid, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("View(%v) = %q, want %q", rid, got, want)
		}
	}
}

func TestHeapDelete(t *testing.T) {
	h := newTestHeap(t)
	var rids []RecordID
	for i := 0; i < 10; i++ {
		rid, err := h.Insert([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for i := 0; i < 10; i += 2 {
		if err := h.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i, rid := range rids {
		got, err := readRecord(h, rid)
		if i%2 == 0 {
			if err == nil {
				t.Fatalf("deleted record %d still readable: %v", i, got)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, []byte{byte(i)}) {
			t.Fatalf("survivor %d = %v, %v", i, got, err)
		}
	}
}

func TestHeapOverflowRecords(t *testing.T) {
	h := newTestHeap(t) // 256-byte pages
	rng := rand.New(rand.NewSource(3))
	sizes := []int{
		200,  // inline, near capacity
		250,  // just over inline capacity -> 2 overflow chunks
		1024, // several chunks
		5000, // many chunks
	}
	type stored struct {
		rid RecordID
		rec []byte
	}
	var all []stored
	for _, sz := range sizes {
		rec := make([]byte, sz)
		rng.Read(rec)
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatalf("Insert(%d bytes): %v", sz, err)
		}
		all = append(all, stored{rid, rec})
	}
	// Interleave a small record to confirm the slotted pages still work.
	smallRid, err := h.Insert([]byte("small"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range all {
		got, err := readRecord(h, s.rid)
		if err != nil {
			t.Fatalf("View(%d bytes): %v", len(s.rec), err)
		}
		if !bytes.Equal(got, s.rec) {
			t.Fatalf("overflow record of %d bytes corrupted", len(s.rec))
		}
	}
	if got, err := readRecord(h, smallRid); err != nil || string(got) != "small" {
		t.Fatalf("small record after overflow: %q %v", got, err)
	}
	// Deleting an overflow record's descriptor hides it.
	if err := h.Delete(all[2].rid); err != nil {
		t.Fatal(err)
	}
	if _, err := readRecord(h, all[2].rid); err == nil {
		t.Fatal("deleted overflow record still readable")
	}
}

// TestHeapReaderRejectsHostileOverflow: an overflow descriptor and chain
// come off pages a replica did not write. A chain that loops back on
// itself, one that stops short of its declared length, and a descriptor
// declaring gigabytes over one page all fail the read, at no more cost
// than the pages they name.
func TestHeapReaderRejectsHostileOverflow(t *testing.T) {
	h := newTestHeap(t) // 256-byte pages
	rec := bytes.Repeat([]byte{0xAB}, 1000)
	rid, err := h.Insert(rec)
	if err != nil {
		t.Fatal(err)
	}
	page := func(id PageID) []byte {
		f, err := h.bp.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		h.bp.Unpin(f, true)
		return f.Page().Bytes()
	}
	cell, err := AsPage(page(rid.Page)).Cell(int(rid.Slot))
	if err != nil || cell[0] != recOverflow {
		t.Fatalf("a 1000-byte record on 256-byte pages is not an overflow record (%v)", err)
	}
	first := PageID(binary.BigEndian.Uint32(cell[5:9]))
	second := PageID(binary.BigEndian.Uint32(page(first)[1:5]))

	for _, tc := range []struct {
		name   string
		mutate func()
	}{
		{"loop", func() { binary.BigEndian.PutUint32(page(second)[1:5], uint32(first)) }},
		{"short chain", func() { binary.BigEndian.PutUint32(page(second)[1:5], uint32(InvalidPageID)) }},
		{"short chunk", func() { binary.BigEndian.PutUint16(page(first)[5:7], 10) }},
		{"4 GB declared", func() { binary.BigEndian.PutUint32(cell[1:5], 1<<32-1) }},
	} {
		saved := [][]byte{bytes.Clone(page(rid.Page)), bytes.Clone(page(first)), bytes.Clone(page(second))}
		tc.mutate()
		if got, err := readRecord(h, rid); err == nil {
			t.Errorf("%s: read %d bytes, want an error", tc.name, len(got))
		}
		copy(page(rid.Page), saved[0])
		copy(page(first), saved[1])
		copy(page(second), saved[2])
		if got, err := readRecord(h, rid); err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("%s: restored record reads %d bytes, %v", tc.name, len(got), err)
		}
	}
}

// TestHeapReopen: records stay readable by their ids after the pool that
// wrote them is gone — a reader over a fresh pool on the same pager reads
// them, as a replica reads the page ids its metadata records.
func TestHeapReopen(t *testing.T) {
	mem, _ := NewMemPager(256)
	bp, _ := NewBufferPool(mem, 8)
	h, err := NewHeapFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := h.Insert([]byte("survivor"))
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	bp2, err := NewBufferPool(mem, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewHeapReader(bp2).View(rid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "survivor" {
		t.Fatalf("reopened heap View = %q", got)
	}
}

func TestHeapRandomizedWorkload(t *testing.T) {
	h := newTestHeap(t)
	rng := rand.New(rand.NewSource(42))
	live := make(map[RecordID][]byte)
	var deleted []RecordID
	for op := 0; op < 500; op++ {
		if len(live) == 0 || rng.Intn(3) > 0 {
			rec := make([]byte, 1+rng.Intn(40))
			rng.Read(rec)
			rid, err := h.Insert(rec)
			if err != nil {
				t.Fatal(err)
			}
			live[rid] = append([]byte(nil), rec...)
		} else {
			for rid := range live {
				if err := h.Delete(rid); err != nil {
					t.Fatal(err)
				}
				delete(live, rid)
				deleted = append(deleted, rid)
				break
			}
		}
	}
	for rid, want := range live {
		got, err := readRecord(h, rid)
		if err != nil {
			t.Fatalf("View(%v): %v", rid, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("View(%v) mismatch", rid)
		}
	}
	for _, rid := range deleted {
		if _, reused := live[rid]; reused {
			continue
		}
		if _, err := readRecord(h, rid); err == nil {
			t.Fatalf("deleted record %v still readable", rid)
		}
	}
}

func writeFile(path string, data []byte) error {
	return osWriteFile(path, data)
}
