package shardmap

import (
	"errors"
	"testing"

	"edgeauth/internal/schema"
)

func TestEpochMapRoundTrip(t *testing.T) {
	m := testMap()
	dec, err := Decode(m.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.MapEpoch != 5 || dec.ParentEpoch != 4 {
		t.Fatalf("epochs lost: %+v", dec)
	}
	for i, s := range dec.Shards {
		if s.ID != uint64(i+1) {
			t.Fatalf("shard %d ID = %d", i, s.ID)
		}
	}
}

func TestValidateEpochRules(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Map)
	}{
		{"parent >= epoch", func(m *Map) { m.ParentEpoch = m.MapEpoch }},
		{"parent ahead", func(m *Map) { m.ParentEpoch = m.MapEpoch + 1 }},
		{"no map epoch, no IDs", func(m *Map) {
			m.MapEpoch, m.ParentEpoch = 0, 0
			for i := range m.Shards {
				m.Shards[i].ID = 0
			}
		}},
		{"missing shard ID", func(m *Map) { m.Shards[2].ID = 0 }},
		{"duplicate shard ID", func(m *Map) { m.Shards[2].ID = m.Shards[1].ID }},
	}
	for _, tc := range cases {
		m := testMap()
		tc.mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad map", tc.name)
		}
	}
}

func TestSplitAtAndValidateTransition(t *testing.T) {
	parent := testMap() // boundaries 100,200,300; shards 1..4
	child, err := parent.SplitAt(1, schema.Int64(150),
		ShardState{RootDigest: []byte{5, 5, 5, 5}, ID: 5},
		ShardState{RootDigest: []byte{6, 6, 6, 6}, ID: 6})
	if err != nil {
		t.Fatalf("SplitAt: %v", err)
	}
	if child.MapEpoch != 6 || child.ParentEpoch != 5 {
		t.Fatalf("child generation: %d<-%d", child.MapEpoch, child.ParentEpoch)
	}
	if len(child.Shards) != 5 || len(child.Boundaries) != 4 {
		t.Fatalf("child shape: %d shards, %d boundaries", len(child.Shards), len(child.Boundaries))
	}
	if child.Boundaries[1].I != 150 {
		t.Fatalf("inserted boundary = %v", child.Boundaries[1])
	}
	wantIDs := []uint64{1, 5, 6, 3, 4}
	for i, s := range child.Shards {
		if s.ID != wantIDs[i] {
			t.Fatalf("child shard IDs = %v at %d, want %v", s.ID, i, wantIDs)
		}
	}
	if err := ValidateTransition(parent, child); err != nil {
		t.Fatalf("ValidateTransition(split): %v", err)
	}

	// The merge that undoes the split (fresh ID for the merged shard).
	merged, err := child.MergeAt(1, ShardState{RootDigest: []byte{7, 7, 7, 7}, ID: 7})
	if err != nil {
		t.Fatalf("MergeAt: %v", err)
	}
	if err := ValidateTransition(child, merged); err != nil {
		t.Fatalf("ValidateTransition(merge): %v", err)
	}
	if len(merged.Shards) != 4 || merged.Shards[1].ID != 7 {
		t.Fatalf("merged shape: %+v", merged.Shards)
	}

	// Unaffected shards may advance versions between signings.
	advanced := child.Clone()
	advanced.Shards[3].Version += 10
	advanced.Shards[3].RootDigest = []byte{9, 9, 9, 9}
	if err := ValidateTransition(parent, advanced); err != nil {
		t.Fatalf("transition with advanced sibling rejected: %v", err)
	}
}

func TestSplitAtRejects(t *testing.T) {
	parent := testMap()
	fresh := func(id uint64) ShardState { return ShardState{RootDigest: []byte{8, 8, 8, 8}, ID: id} }
	if _, err := parent.SplitAt(9, schema.Int64(150), fresh(5), fresh(6)); err == nil {
		t.Error("out-of-range shard accepted")
	}
	// Boundary on or outside the shard interval.
	if _, err := parent.SplitAt(1, schema.Int64(100), fresh(5), fresh(6)); err == nil {
		t.Error("boundary at shard lo accepted")
	}
	if _, err := parent.SplitAt(1, schema.Int64(200), fresh(5), fresh(6)); err == nil {
		t.Error("boundary at shard hi accepted")
	}
	if _, err := parent.SplitAt(1, schema.Int64(150), fresh(3), fresh(6)); err == nil {
		t.Error("reused shard ID accepted")
	}
	if _, err := parent.SplitAt(1, schema.Int64(150), fresh(5), fresh(5)); err == nil {
		t.Error("duplicate fresh IDs accepted")
	}
	if _, err := parent.MergeAt(3, fresh(5)); err == nil {
		t.Error("merge past last pair accepted")
	}
	if _, err := parent.MergeAt(0, fresh(4)); err == nil {
		t.Error("merge reusing live ID accepted")
	}
}

func TestValidateTransitionRejects(t *testing.T) {
	parent := testMap()
	mk := func() *Map {
		c, err := parent.SplitAt(1, schema.Int64(150),
			ShardState{RootDigest: []byte{5, 5, 5, 5}, ID: 5},
			ShardState{RootDigest: []byte{6, 6, 6, 6}, ID: 6})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cases := []struct {
		name   string
		mutate func(*Map)
	}{
		{"wrong table", func(c *Map) { c.Table = "other" }},
		{"wrong incarnation", func(c *Map) { c.Epoch++ }},
		{"generation skip", func(c *Map) { c.MapEpoch++ }},
		{"broken parent link", func(c *Map) { c.ParentEpoch-- }},
		{"dropped carry-over", func(c *Map) { c.Shards[3].ID = 8 }},
		{"moved boundary", func(c *Map) { c.Boundaries[3] = schema.Int64(310) }},
	}
	for _, tc := range cases {
		c := mk()
		tc.mutate(c)
		if err := ValidateTransition(parent, c); !errors.Is(err, ErrBadTransition) {
			t.Errorf("%s: got %v, want ErrBadTransition", tc.name, err)
		}
	}
	// Same shard count is never a transition.
	if err := ValidateTransition(parent, parent); !errors.Is(err, ErrBadTransition) {
		t.Error("identity accepted as a transition")
	}
	// A "split" that only appends a shard (no retirement) is rejected.
	appended := parent.Clone()
	appended.MapEpoch++
	appended.ParentEpoch = parent.MapEpoch
	appended.Boundaries = append(appended.Boundaries, schema.Int64(400))
	appended.Shards = append(appended.Shards, ShardState{RootDigest: []byte{5, 5, 5, 5}, ID: 9})
	if err := ValidateTransition(parent, appended); !errors.Is(err, ErrBadTransition) {
		t.Errorf("append-only split accepted: %v", err)
	}
}
