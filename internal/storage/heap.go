package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// RecordID locates a tuple in a heap file: page and slot.
type RecordID struct {
	Page PageID
	Slot uint16
}

// IsValid reports whether the RecordID refers to a real page.
func (r RecordID) IsValid() bool { return r.Page != InvalidPageID }

// Encode appends the 6-byte wire form.
func (r RecordID) Encode(dst []byte) []byte {
	var b [6]byte
	binary.BigEndian.PutUint32(b[0:4], uint32(r.Page))
	binary.BigEndian.PutUint16(b[4:6], r.Slot)
	return append(dst, b[:]...)
}

func (r RecordID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// HeapFile writes variable-length records into slotted pages linked by
// allocation order; a HeapReader reads them. It tracks the last page with
// free space for appends; records never move once inserted, so RecordIDs
// are stable.
//
// Records larger than a page spill into chained overflow pages: the slot
// cell holds a one-byte tag, and oversized records store a descriptor
// (total length + first overflow page) whose payload a read reassembles.
// Overflow pages are dedicated to a single record.
type HeapFile struct {
	bp      *BufferPool
	pages   []PageID // slotted heap pages, in allocation order
	current PageID   // page currently receiving inserts
}

// Record cell layout: tag(1) | payload. Inline records carry the payload
// directly; overflow records carry totalLen(4) | firstOverflowPage(4).
const (
	recInline   = 0x00
	recOverflow = 0x01
)

// Overflow page layout: type(1) | next(4) | chunkLen(2) | chunk.
const overflowHeader = 1 + 4 + 2

// NewHeapFile creates an empty heap over the buffer pool.
func NewHeapFile(bp *BufferPool) (*HeapFile, error) {
	f, err := bp.NewPage(PageHeap)
	if err != nil {
		return nil, err
	}
	id := f.ID()
	bp.Unpin(f, true)
	return &HeapFile{bp: bp, pages: []PageID{id}, current: id}, nil
}

// Pages returns the heap's page ids in allocation order.
func (h *HeapFile) Pages() []PageID { return append([]PageID(nil), h.pages...) }

// Insert stores a record and returns its id.
func (h *HeapFile) Insert(rec []byte) (RecordID, error) {
	inlineMax := h.bp.PageSize() - pageHeaderSize - slotSize - 1
	var cell []byte
	if len(rec) <= inlineMax {
		cell = make([]byte, 1+len(rec))
		cell[0] = recInline
		copy(cell[1:], rec)
	} else {
		first, err := h.writeOverflow(rec)
		if err != nil {
			return RecordID{}, err
		}
		cell = make([]byte, 1+4+4)
		cell[0] = recOverflow
		binary.BigEndian.PutUint32(cell[1:5], uint32(len(rec)))
		binary.BigEndian.PutUint32(cell[5:9], uint32(first))
	}
	return h.insertCell(cell)
}

// writeOverflow spills rec into a chain of overflow pages and returns the
// first page id.
func (h *HeapFile) writeOverflow(rec []byte) (PageID, error) {
	chunkMax := h.bp.PageSize() - overflowHeader
	var first, prev PageID
	var prevFrame *Frame
	for off := 0; off < len(rec); off += chunkMax {
		end := off + chunkMax
		if end > len(rec) {
			end = len(rec)
		}
		f, err := h.bp.NewPage(PageHeap)
		if err != nil {
			if prevFrame != nil {
				h.bp.Unpin(prevFrame, true)
			}
			return 0, err
		}
		buf := f.Page().Bytes()
		buf[0] = byte(PageHeap)
		binary.BigEndian.PutUint32(buf[1:5], 0) // next, patched below
		binary.BigEndian.PutUint16(buf[5:7], uint16(end-off))
		copy(buf[overflowHeader:], rec[off:end])
		if prevFrame != nil {
			binary.BigEndian.PutUint32(prevFrame.Page().Bytes()[1:5], uint32(f.ID()))
			h.bp.Unpin(prevFrame, true)
		} else {
			first = f.ID()
		}
		prev = f.ID()
		prevFrame = f
	}
	_ = prev
	if prevFrame != nil {
		h.bp.Unpin(prevFrame, true)
	}
	return first, nil
}

// insertCell places a prepared cell into the current (or a fresh) page.
func (h *HeapFile) insertCell(cell []byte) (RecordID, error) {
	f, err := h.bp.Fetch(h.current)
	if err != nil {
		return RecordID{}, err
	}
	slot, err := f.Page().InsertCell(cell)
	if err == nil {
		rid := RecordID{Page: h.current, Slot: uint16(slot)}
		h.bp.Unpin(f, true)
		return rid, nil
	}
	h.bp.Unpin(f, false)
	if !errors.Is(err, ErrPageFull) {
		return RecordID{}, err
	}
	nf, err := h.bp.NewPage(PageHeap)
	if err != nil {
		return RecordID{}, err
	}
	h.current = nf.ID()
	h.pages = append(h.pages, nf.ID())
	slot, err = nf.Page().InsertCell(cell)
	if err != nil {
		h.bp.Unpin(nf, false)
		return RecordID{}, err
	}
	rid := RecordID{Page: h.current, Slot: uint16(slot)}
	h.bp.Unpin(nf, true)
	return rid, nil
}

// Delete tombstones the record at rid. A refused delete leaves the page
// clean, so no delta ships it.
func (h *HeapFile) Delete(rid RecordID) error {
	f, err := h.bp.Fetch(rid.Page)
	if err != nil {
		return err
	}
	err = f.Page().DeleteCell(int(rid.Slot))
	h.bp.Unpin(f, err == nil)
	return err
}

// HeapReader reads a heap file's records through any PageReader — an
// immutable Snapshot, which is how the lock-free query path loads tuples
// while refreshes publish successor versions alongside, or the writer's
// BufferPool. It is the one reader of heap records.
type HeapReader struct {
	pr PageReader
}

// NewHeapReader reads records through a page view.
func NewHeapReader(pr PageReader) *HeapReader {
	return &HeapReader{pr: pr}
}

// View returns the record at rid without copying it: an inline record is
// a slice of the page the reader returned, to be read only and valid
// until that page can change — for a Snapshot, until the pin is released;
// an overflow chain is reassembled into memory the caller owns.
func (h *HeapReader) View(rid RecordID) ([]byte, error) {
	rec, _, err := heapView(h.pr, rid)
	return rec, err
}

// heapView reads one record through a page view; owned is false when rec
// aliases the page.
func heapView(pr PageReader, rid RecordID) (rec []byte, owned bool, err error) {
	buf, err := pr.View(rid.Page)
	if err != nil {
		return nil, false, err
	}
	cell, err := AsPage(buf).Cell(int(rid.Slot))
	if err != nil {
		return nil, false, err
	}
	return resolveCell(pr, cell)
}

// resolveCell decodes a record cell. An inline record is returned as a
// slice of the cell (owned false); an overflow chain is followed and
// reassembled into fresh memory (owned true).
func resolveCell(pr PageReader, cell []byte) (rec []byte, owned bool, err error) {
	if len(cell) < 1 {
		return nil, false, errors.New("storage: empty record cell")
	}
	switch cell[0] {
	case recInline:
		return cell[1:], false, nil
	case recOverflow:
		if len(cell) != 1+4+4 {
			return nil, false, errors.New("storage: malformed overflow descriptor")
		}
		total := int(binary.BigEndian.Uint32(cell[1:5]))
		first := PageID(binary.BigEndian.Uint32(cell[5:9]))
		if err := checkOverflow(pr, first, total); err != nil {
			return nil, false, err
		}
		out := make([]byte, 0, total)
		for next := first; next != InvalidPageID; {
			buf, err := pr.View(next)
			if err != nil {
				return nil, false, err
			}
			var chunk []byte
			if chunk, next, err = overflowChunk(buf); err != nil {
				return nil, false, err
			}
			out = append(out, chunk...)
		}
		return out, true, nil
	default:
		return nil, false, fmt.Errorf("storage: unknown record tag %d", cell[0])
	}
}

// checkOverflow walks the overflow chain from first before anything is
// copied out of it: every chunk but the last fills its page, as
// HeapFile.writeOverflow writes them, and the chunks hold exactly total
// bytes. A chain that loops never ends, so it fails once it passes total,
// and a declared length is allocated only once pages hold it.
func checkOverflow(pr PageReader, first PageID, total int) error {
	n := 0
	for next := first; next != InvalidPageID; {
		buf, err := pr.View(next)
		if err != nil {
			return err
		}
		var chunk []byte
		if chunk, next, err = overflowChunk(buf); err != nil {
			return err
		}
		if next != InvalidPageID && len(chunk) != len(buf)-overflowHeader {
			return errors.New("storage: overflow chunk short of its page before the end of the chain")
		}
		if n += len(chunk); n > total {
			return errors.New("storage: overflow chain longer than declared")
		}
	}
	if n != total {
		return fmt.Errorf("storage: overflow chain yields %d bytes, want %d", n, total)
	}
	return nil
}

// overflowChunk parses an overflow page: its chunk, in place, and the
// next page of the chain.
func overflowChunk(buf []byte) (chunk []byte, next PageID, err error) {
	if len(buf) < overflowHeader {
		return nil, 0, errors.New("storage: overflow page truncated")
	}
	n := int(binary.BigEndian.Uint16(buf[5:7]))
	if overflowHeader+n > len(buf) {
		return nil, 0, errors.New("storage: corrupt overflow chunk")
	}
	return buf[overflowHeader : overflowHeader+n], PageID(binary.BigEndian.Uint32(buf[1:5])), nil
}
