package storage

import "testing"

// MarkDirty flags a pinned frame as modified.
func (bp *BufferPool) MarkDirty(f *Frame) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f.dirty = true
	bp.recordLocked(f.id)
}

func TestBufferPoolJournal(t *testing.T) {
	mem, err := NewMemPager(MinPageSize)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := NewBufferPool(mem, 8)
	if err != nil {
		t.Fatal(err)
	}

	// Disabled journal records nothing.
	f, err := bp.NewPage(PageHeap)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(f, true)
	if got := bp.DrainJournal(); got != nil {
		t.Fatalf("disabled journal drained %v", got)
	}

	bp.EnableJournal()
	// NewPage, dirty Unpin, and MarkDirty all record; clean operations
	// do not.
	f1, err := bp.NewPage(PageHeap)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(f1, false)
	f2, err := bp.Fetch(f.ID())
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(f2, true)
	f3, err := bp.Fetch(f.ID())
	if err != nil {
		t.Fatal(err)
	}
	bp.MarkDirty(f3)
	bp.Unpin(f3, false)

	got := bp.DrainJournal()
	if len(got) != 2 || got[0] != f.ID() || got[1] != f1.ID() {
		t.Fatalf("journal = %v, want [%d %d]", got, f.ID(), f1.ID())
	}
	// Drained: next drain is empty until a new write happens.
	if got := bp.DrainJournal(); got != nil {
		t.Fatalf("second drain returned %v", got)
	}
	f4, err := bp.Fetch(f1.ID())
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(f4, false)
	if got := bp.DrainJournal(); got != nil {
		t.Fatalf("clean fetch journaled %v", got)
	}
}

// TestRefusedHeapDeleteJournalsNothing: deleting a record twice changes
// its page once. The second delete is refused, and the page it left as it
// was must not be journaled, or the next delta would ship it unchanged.
func TestRefusedHeapDeleteJournalsNothing(t *testing.T) {
	mem, err := NewMemPager(MinPageSize)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := NewBufferPool(mem, 8)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := NewHeapFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := heap.Insert([]byte("record"))
	if err != nil {
		t.Fatal(err)
	}
	bp.EnableJournal()
	if err := heap.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if got := bp.DrainJournal(); len(got) != 1 || got[0] != rid.Page {
		t.Fatalf("delete journaled %v, want [%d]", got, rid.Page)
	}
	if err := heap.Delete(rid); err == nil {
		t.Fatal("second delete of one record accepted")
	}
	if got := bp.DrainJournal(); got != nil {
		t.Fatalf("refused delete journaled %v", got)
	}
}
