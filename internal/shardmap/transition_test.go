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

// splitChild is testMap's successor by a split of shard 1 (ID 2) at 150
// into the fresh shards 5 and 6.
func splitChild() *Map {
	return &Map{
		Table:       "items",
		Epoch:       7,
		MapVersion:  42,
		KeyVersion:  3,
		SignedAt:    1_700_000_000,
		MapEpoch:    6,
		ParentEpoch: 5,
		Boundaries:  []schema.Datum{schema.Int64(100), schema.Int64(150), schema.Int64(200), schema.Int64(300)},
		Shards: []ShardState{
			{RootDigest: []byte{1, 1, 1, 1}, Version: 9, ID: 1},
			{RootDigest: []byte{5, 5, 5, 5}, ID: 5},
			{RootDigest: []byte{6, 6, 6, 6}, ID: 6},
			{RootDigest: []byte{3, 3, 3, 3}, Version: 0, ID: 3},
			{RootDigest: []byte{4, 4, 4, 4}, Version: 12, ID: 4},
		},
	}
}

// mergeChild is splitChild's successor by a merge of its shards 1 and 2
// (IDs 5 and 6) into the fresh shard 7.
func mergeChild() *Map {
	return &Map{
		Table:       "items",
		Epoch:       7,
		MapVersion:  42,
		KeyVersion:  3,
		SignedAt:    1_700_000_000,
		MapEpoch:    7,
		ParentEpoch: 6,
		Boundaries:  []schema.Datum{schema.Int64(100), schema.Int64(200), schema.Int64(300)},
		Shards: []ShardState{
			{RootDigest: []byte{1, 1, 1, 1}, Version: 9, ID: 1},
			{RootDigest: []byte{7, 7, 7, 7}, ID: 7},
			{RootDigest: []byte{3, 3, 3, 3}, Version: 0, ID: 3},
			{RootDigest: []byte{4, 4, 4, 4}, Version: 12, ID: 4},
		},
	}
}

func TestValidateTransitionAccepts(t *testing.T) {
	if err := ValidateTransition(testMap(), splitChild()); err != nil {
		t.Fatalf("ValidateTransition(split): %v", err)
	}
	if err := ValidateTransition(splitChild(), mergeChild()); err != nil {
		t.Fatalf("ValidateTransition(merge): %v", err)
	}

	// Unaffected shards may advance versions between signings.
	advanced := splitChild()
	advanced.Shards[3].Version += 10
	advanced.Shards[3].RootDigest = []byte{9, 9, 9, 9}
	if err := ValidateTransition(testMap(), advanced); err != nil {
		t.Fatalf("transition with advanced sibling rejected: %v", err)
	}
}

func TestValidateTransitionRejects(t *testing.T) {
	parent := testMap()
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
		{"cut on the shard's lower bound", func(c *Map) { c.Boundaries[1] = schema.Int64(100) }},
		{"cut on the shard's upper bound", func(c *Map) { c.Boundaries[1] = schema.Int64(200) }},
		{"child reuses the retired ID", func(c *Map) { c.Shards[1].ID = 2 }},
		{"child reuses a live ID", func(c *Map) { c.Shards[1].ID = 3 }},
		{"children share an ID", func(c *Map) { c.Shards[2].ID = 5 }},
	}
	for _, tc := range cases {
		c := splitChild()
		tc.mutate(c)
		if err := ValidateTransition(parent, c); !errors.Is(err, ErrBadTransition) {
			t.Errorf("%s: got %v, want ErrBadTransition", tc.name, err)
		}
	}
	// A merged shard must be a new identity, not a continuation of either
	// input.
	for _, id := range []uint64{5, 6, 3} {
		m := mergeChild()
		m.Shards[1].ID = id
		if err := ValidateTransition(splitChild(), m); !errors.Is(err, ErrBadTransition) {
			t.Errorf("merged shard reusing ID %d: got %v, want ErrBadTransition", id, err)
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
