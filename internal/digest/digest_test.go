package digest

import (
	"testing"
)

func testAcc(t *testing.T) *Accumulator {
	t.Helper()
	a, err := New(DefaultParams())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return a
}

// TestNewValidation: the digest width is a constant of the code, so every
// Params builds the same accumulator, counted or not.
func TestNewValidation(t *testing.T) {
	for name, p := range map[string]Params{"defaults": DefaultParams(), "counted": {Counters: new(Counters)}} {
		t.Run(name, func(t *testing.T) {
			a, err := New(p)
			if err != nil {
				t.Fatalf("New(%+v): %v", p, err)
			}
			if a.Len() != 16 || a.Counters() != p.Counters {
				t.Fatalf("New(%+v): %d-byte digests, counters %p", p, a.Len(), a.Counters())
			}
		})
	}
}

// TestCountersTrackOps: every ordered hash counts one h, nothing here
// combines, and Reset zeroes what was counted.
func TestCountersTrackOps(t *testing.T) {
	var c Counters
	p := DefaultParams()
	p.Counters = &c
	a := MustNew(p)
	d1 := a.AttrDigest(nil, 1, []byte("1"))
	d2 := a.AttrDigest(nil, 2, []byte("2"))
	a.TupleDigest(nil, []byte("key"), append(d1.Clone(), d2...), nil) // two columns: no column groups
	s := c.Snapshot()
	if s.HashOps != 3 {
		t.Errorf("HashOps = %d, want 3 (2 attributes + 1 tuple)", s.HashOps)
	}
	if s.CombineOps != 0 {
		t.Errorf("CombineOps = %d, want 0: ordered hashes combine nothing", s.CombineOps)
	}
	c.Reset()
	if s := c.Snapshot(); s.HashOps != 0 || s.CombineOps != 0 || s.RecoverOps != 0 {
		t.Errorf("Reset left counters non-zero: %+v", s)
	}
}

func TestCounterSnapshotSub(t *testing.T) {
	a := CounterSnapshot{HashOps: 10, CombineOps: 7, RecoverOps: 3}
	b := CounterSnapshot{HashOps: 4, CombineOps: 2, RecoverOps: 1}
	d := a.Sub(b)
	if d.HashOps != 6 || d.CombineOps != 5 || d.RecoverOps != 2 {
		t.Fatalf("Sub = %+v", d)
	}
}

func TestValueCloneIndependent(t *testing.T) {
	a := testAcc(t)
	d := a.AttrDigest(nil, 1, []byte("x"))
	c := d.Clone()
	c[0] ^= 0xFF
	if d.Equal(c) {
		t.Fatal("Clone shares storage with original")
	}
}

// TestStoredCountsMatchTheShapes: ColumnDigests and StoredBytes count the
// digests a heap record and a page store without building a Shape, and
// agree with the shapes a proof is read against for every size a node
// or a tuple can have.
func TestStoredCountsMatchTheShapes(t *testing.T) {
	if ColumnDigests(0) != 0 {
		t.Fatalf("ColumnDigests(0) = %d, want 0", ColumnDigests(0))
	}
	for n := 0; n <= MaxEntries; n++ {
		node := newShape(tagGroup, n)
		if got, want := StoredBytes(n), node.Stored()*Size; got != want {
			t.Fatalf("StoredBytes(%d) = %d, the shape stores %d", n, got, want)
		}
		if n == 0 {
			continue
		}
		cols := newShape(tagColumnGroup, n-1)
		if got, want := ColumnDigests(n), n-1+cols.Stored(); got != want {
			t.Fatalf("ColumnDigests(%d) = %d, the shape stores %d beside %d attribute digests", n, got, cols.Stored(), n-1)
		}
	}
}
