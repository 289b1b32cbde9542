// Package storage provides the on-disk substrate of the reproduction:
// fixed-size slotted pages, disk- and memory-backed pagers, an LRU buffer
// pool, and heap files for tuple storage. The VB-tree and the baseline
// B+-tree both live on these pages, so the fan-out and height measurements
// of Figures 8–9 come from real page layouts (4 KB nodes, Table 1).
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// DefaultPageSize is the block/node size from Table 1 of the paper (4 KB).
const DefaultPageSize = 4096

// MinPageSize bounds how small a page may be and still hold the slotted
// header plus one useful cell.
const MinPageSize = 128

// PageID identifies a page within a pager. Page 0 is reserved for pager
// metadata; user pages start at 1.
type PageID uint32

// InvalidPageID is the zero PageID; it never refers to a user page.
const InvalidPageID PageID = 0

// PageType tags what a page stores.
type PageType uint8

const (
	PageFree PageType = iota
	PageHeap
	PageBTreeLeaf
	PageBTreeInternal
	PageVBLeaf
	PageVBInternal
	PageMeta
)

// Slotted-page layout:
//
//	offset 0: type (1) | flags (1) | nslots (2) | freeStart (2) | freeEnd (2)
//	offset 8: slot directory, 4 bytes per slot: cellOffset (2) | cellLen (2)
//	...free space...
//	cells, growing down from the end of the page
//
// A deleted slot keeps its directory entry with cellOffset == tombstone.
const (
	pageHeaderSize = 8
	slotSize       = 4
	tombstone      = 0xFFFF
)

// Page is a slotted page over a fixed-size byte buffer. The buffer is owned
// by the buffer pool frame; Page is a transient, cheap view.
type Page struct {
	buf []byte
}

// AsPage wraps a raw buffer as a Page without initialization.
func AsPage(buf []byte) Page { return Page{buf: buf} }

// InitPage formats buf as an empty slotted page of the given type.
func InitPage(buf []byte, t PageType) Page {
	for i := range buf {
		buf[i] = 0
	}
	p := Page{buf: buf}
	p.buf[0] = byte(t)
	p.setNumSlots(0)
	p.setFreeStart(pageHeaderSize)
	p.setFreeEnd(uint16(len(buf)))
	return p
}

// Type returns the page type tag.
func (p Page) Type() PageType { return PageType(p.buf[0]) }

// SetType updates the page type tag.
func (p Page) SetType(t PageType) { p.buf[0] = byte(t) }

// Size returns the page size in bytes.
func (p Page) Size() int { return len(p.buf) }

// Bytes exposes the raw buffer (for pager I/O).
func (p Page) Bytes() []byte { return p.buf }

func (p Page) numSlots() int         { return int(binary.BigEndian.Uint16(p.buf[2:4])) }
func (p Page) setNumSlots(n int)     { binary.BigEndian.PutUint16(p.buf[2:4], uint16(n)) }
func (p Page) freeStart() uint16     { return binary.BigEndian.Uint16(p.buf[4:6]) }
func (p Page) setFreeStart(v uint16) { binary.BigEndian.PutUint16(p.buf[4:6], v) }
func (p Page) freeEnd() uint16       { return binary.BigEndian.Uint16(p.buf[6:8]) }
func (p Page) setFreeEnd(v uint16)   { binary.BigEndian.PutUint16(p.buf[6:8], v) }

// NumSlots returns the slot-directory length, including tombstoned slots.
func (p Page) NumSlots() int { return p.numSlots() }

// slots is the slot count bounded by the directory entries the buffer can
// hold. A page whose header claims a directory running past its end is
// corrupt (a relayed page is not signed page by page), and no slot past
// the buffer is ever read.
func (p Page) slots() int {
	return min(p.numSlots(), (len(p.buf)-pageHeaderSize)/slotSize)
}

// FreeSpace returns the bytes available for one new cell plus its slot.
func (p Page) FreeSpace() int {
	free := int(p.freeEnd()) - int(p.freeStart())
	free -= slotSize // a new cell needs a directory entry too
	if free < 0 {
		return 0
	}
	return free
}

func (p Page) slotAt(i int) (off, ln uint16) {
	base := pageHeaderSize + i*slotSize
	return binary.BigEndian.Uint16(p.buf[base : base+2]),
		binary.BigEndian.Uint16(p.buf[base+2 : base+4])
}

func (p Page) setSlotAt(i int, off, ln uint16) {
	base := pageHeaderSize + i*slotSize
	binary.BigEndian.PutUint16(p.buf[base:base+2], off)
	binary.BigEndian.PutUint16(p.buf[base+2:base+4], ln)
}

// ErrPageFull is returned when a cell cannot fit in the page's free space.
var ErrPageFull = errors.New("storage: page full")

// InsertCell appends a cell and returns its slot index.
func (p Page) InsertCell(cell []byte) (int, error) {
	if len(cell) > int(p.freeEnd()) { // cheap sanity before FreeSpace math
		return 0, ErrPageFull
	}
	if len(cell) > p.FreeSpace() {
		return 0, ErrPageFull
	}
	slot := p.numSlots()
	newEnd := p.freeEnd() - uint16(len(cell))
	copy(p.buf[newEnd:], cell)
	p.setFreeEnd(newEnd)
	p.setSlotAt(slot, newEnd, uint16(len(cell)))
	p.setNumSlots(slot + 1)
	p.setFreeStart(p.freeStart() + slotSize)
	return slot, nil
}

// Cell returns the cell at slot i, or an error if i is out of range or
// tombstoned. The returned slice aliases the page buffer.
func (p Page) Cell(i int) ([]byte, error) {
	if i < 0 || i >= p.slots() {
		return nil, fmt.Errorf("storage: slot %d out of range [0,%d)", i, p.slots())
	}
	off, ln := p.slotAt(i)
	if off == tombstone {
		return nil, fmt.Errorf("storage: slot %d is deleted", i)
	}
	if int(off)+int(ln) > len(p.buf) {
		return nil, fmt.Errorf("storage: slot %d cell out of bounds", i)
	}
	return p.buf[off : int(off)+int(ln)], nil
}

// DeleteCell tombstones slot i. The space is reclaimed by Compact.
func (p Page) DeleteCell(i int) error {
	if i < 0 || i >= p.slots() {
		return fmt.Errorf("storage: slot %d out of range [0,%d)", i, p.slots())
	}
	off, _ := p.slotAt(i)
	if off == tombstone {
		return fmt.Errorf("storage: slot %d already deleted", i)
	}
	p.setSlotAt(i, tombstone, 0)
	return nil
}

// IsDeleted reports whether slot i is tombstoned.
func (p Page) IsDeleted(i int) bool {
	if i < 0 || i >= p.slots() {
		return true
	}
	off, _ := p.slotAt(i)
	return off == tombstone
}

// Compact rewrites live cells to eliminate dead space, preserving slot
// indices (so RecordIDs stay valid).
func (p Page) Compact() {
	n := p.numSlots()
	type live struct {
		slot int
		data []byte
	}
	cells := make([]live, 0, n)
	for i := 0; i < n; i++ {
		off, ln := p.slotAt(i)
		if off == tombstone {
			continue
		}
		d := make([]byte, ln)
		copy(d, p.buf[off:int(off)+int(ln)])
		cells = append(cells, live{i, d})
	}
	end := uint16(len(p.buf))
	for _, c := range cells {
		end -= uint16(len(c.data))
		copy(p.buf[end:], c.data)
		p.setSlotAt(c.slot, end, uint16(len(c.data)))
	}
	p.setFreeEnd(end)
}

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
