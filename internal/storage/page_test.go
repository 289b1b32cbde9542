package storage

import (
	"encoding/binary"
	"testing"
)

// SetType updates the page type tag.
func (p Page) SetType(t PageType) { p.buf[0] = byte(t) }

// LiveCells returns the number of non-tombstoned slots.
func (p Page) LiveCells() int {
	n := 0
	for i := 0; i < p.slots(); i++ {
		if !p.IsDeleted(i) {
			n++
		}
	}
	return n
}

// overclaimedPage is an honest heap page of size bytes holding cells
// whose header then claims 0xFFFF slots: a directory running far past the
// page, as a corrupted or forged replica page can carry.
func overclaimedPage(size int, cells ...string) []byte {
	p := InitPage(make([]byte, size), PageHeap)
	for _, c := range cells {
		if _, err := p.InsertCell([]byte(c)); err != nil {
			panic(err)
		}
	}
	binary.BigEndian.PutUint16(p.buf[2:4], 0xFFFF)
	return p.buf
}

// TestPageSlotDirectoryPastTheBuffer: the header's slot count is not
// trusted past the buffer. A slot whose directory entry would lie beyond
// the page is out of range for every reader — Cell, DeleteCell,
// IsDeleted, LiveCells — instead of a read past the slice.
func TestPageSlotDirectoryPastTheBuffer(t *testing.T) {
	p := AsPage(overclaimedPage(1024, "a", "bc"))
	if p.NumSlots() != 0xFFFF {
		t.Fatalf("NumSlots = %d, want the header's 0xFFFF", p.NumSlots())
	}
	if c, err := p.Cell(1); err != nil || string(c) != "bc" {
		t.Fatalf("Cell(1) = %q, %v; want the honest cell", c, err)
	}
	if _, err := p.Cell(300); err == nil {
		t.Fatal("Cell(300) on a 1 KiB page succeeded")
	}
	if err := p.DeleteCell(300); err == nil {
		t.Fatal("DeleteCell(300) on a 1 KiB page succeeded")
	}
	if !p.IsDeleted(300) {
		t.Fatal("a slot past the page should read as deleted")
	}
	// (1024-8)/4 = 254 directory entries fit; the two cells are live and
	// the zeroed entries past them read as zero-length cells, not past
	// the buffer.
	if n := p.LiveCells(); n != (1024-pageHeaderSize)/slotSize {
		t.Fatalf("LiveCells = %d, want %d", n, (1024-pageHeaderSize)/slotSize)
	}
}

// FuzzPage: the read side of a slotted page never panics on any buffer of
// at least MinPageSize bytes, and a cell it returns lies inside the
// buffer. Pages reach an edge from snapshots and deltas whose pages are
// not signed one by one, so the readers must bound everything the header
// claims. The writers (InsertCell, Compact) only run on pages this
// process formatted, and are out of scope.
func FuzzPage(f *testing.F) {
	honest := InitPage(make([]byte, MinPageSize), PageHeap)
	for _, c := range []string{"first", "second", "third"} {
		if _, err := honest.InsertCell([]byte(c)); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(append([]byte(nil), honest.buf...))
	if err := honest.DeleteCell(1); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), honest.buf...))
	f.Add(overclaimedPage(MinPageSize, "x", "yz"))

	f.Fuzz(func(t *testing.T, buf []byte) {
		if len(buf) < MinPageSize {
			return
		}
		p := AsPage(buf)
		_ = p.FreeSpace()
		_ = p.LiveCells()
		// Every slot whose directory entry fits in the buffer, one past
		// them, and the last one the header claims.
		last := p.NumSlots() - 1
		for i := -1; i <= min(last, len(buf)/slotSize)+1; i++ {
			checkCell(t, buf, p, i)
		}
		checkCell(t, buf, p, last)
	})
}

// checkCell reads slot i (an error is fine, a panic is not) and checks
// that a cell it returns is a subslice of buf.
func checkCell(t *testing.T, buf []byte, p Page, i int) {
	p.IsDeleted(i)
	c, err := p.Cell(i)
	if err != nil || len(c) == 0 {
		return
	}
	// c is buf[off:off+len(c)] for the off its capacity gives away.
	off := cap(buf) - cap(c)
	if off < 0 || off+len(c) > len(buf) || &buf[off] != &c[0] {
		t.Fatalf("Cell(%d) returned %d bytes outside the buffer", i, len(c))
	}
}
