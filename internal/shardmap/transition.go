package shardmap

// Epoch transitions: a split inserts one boundary and replaces one shard
// with two freshly-built (and freshly-signed) shards; a merge removes
// one boundary and replaces two adjacent shards with one. Both bump
// MapEpoch by exactly one and record the previous generation in
// ParentEpoch, so the sequence of signed maps for a table incarnation
// forms a chain: a verifier that has seen generation g can reject any
// later-presented map of generation < g as a replay, and the
// single-boundary delta keeps the §3.3 completeness argument local —
// every key interval covered by the parent partition is covered by the
// child partition, just by a different (re-signed) shard.

import (
	"errors"
	"fmt"
)

// ErrBadTransition reports a child map that does not follow from its
// claimed parent by one legal split or merge. It is a verification
// failure, not an I/O failure: callers must fail closed.
var ErrBadTransition = errors.New("shardmap: invalid epoch transition")

// ValidateTransition checks that child follows from parent by exactly
// one legal split or merge. Both maps are untrusted input here: the
// check is structural (table, incarnation epoch, generation link,
// single-boundary delta, shard-ID carry-over) and deliberately ignores
// shard versions and digests, which legitimately advance between the
// two signings. The central's transition commit runs it on the child
// map against the stored parent and refuses a transition that fails it;
// the central's transition tests and the transition fuzz target check
// maps against it too.
func ValidateTransition(parent, child *Map) error {
	if err := parent.Validate(); err != nil {
		return fmt.Errorf("%w: parent: %v", ErrBadTransition, err)
	}
	if err := child.Validate(); err != nil {
		return fmt.Errorf("%w: child: %v", ErrBadTransition, err)
	}
	if parent.Table != child.Table {
		return fmt.Errorf("%w: table %q vs %q", ErrBadTransition, parent.Table, child.Table)
	}
	if parent.Epoch != child.Epoch {
		return fmt.Errorf("%w: table incarnation changed", ErrBadTransition)
	}
	if parent.MapEpoch == 0 || child.MapEpoch != parent.MapEpoch+1 || child.ParentEpoch != parent.MapEpoch {
		return fmt.Errorf("%w: generation link %d->%d (parent link %d)", ErrBadTransition,
			parent.MapEpoch, child.MapEpoch, child.ParentEpoch)
	}
	switch len(child.Shards) - len(parent.Shards) {
	case 1:
		return validateSplitShape(parent, child)
	case -1:
		return validateSplitShape(child, parent) // a merge is a split read backwards
	default:
		return fmt.Errorf("%w: shard count %d -> %d", ErrBadTransition,
			len(parent.Shards), len(child.Shards))
	}
}

// validateSplitShape checks the "one shard became two" shape: wide has
// exactly one more shard and one more boundary than narrow, all of
// narrow's other shards appear in wide in order with IDs intact, and
// the two replacement shards carry IDs absent from narrow.
func validateSplitShape(narrow, wide *Map) error {
	// Find the split point: first index where the ID sequences diverge.
	i := 0
	for i < len(narrow.Shards) && narrow.Shards[i].ID == wide.Shards[i].ID {
		i++
	}
	if i >= len(narrow.Shards) && len(narrow.Shards) > 0 {
		// All of narrow's IDs are a prefix of wide's — the "split" added a
		// shard at the end without retiring one, which is not a split.
		return fmt.Errorf("%w: no shard was replaced", ErrBadTransition)
	}
	// Shards after the split point must carry over, shifted by one.
	for j := i + 1; j < len(narrow.Shards); j++ {
		if narrow.Shards[j].ID != wide.Shards[j+1].ID {
			return fmt.Errorf("%w: shard ID %d not carried over", ErrBadTransition, narrow.Shards[j].ID)
		}
	}
	// The two replacement shards must be new identities.
	old := make(map[uint64]bool, len(narrow.Shards))
	for _, s := range narrow.Shards {
		old[s.ID] = true
	}
	if old[wide.Shards[i].ID] || old[wide.Shards[i+1].ID] {
		return fmt.Errorf("%w: replacement shard reuses a retired ID", ErrBadTransition)
	}
	// Boundary delta: wide's boundaries are narrow's with one inserted at
	// position i, and the insert must land inside the replaced shard's
	// interval (strictly between its neighbors).
	for j := 0; j < i; j++ {
		if narrow.Boundaries[j].Compare(wide.Boundaries[j]) != 0 {
			return fmt.Errorf("%w: boundary %d changed", ErrBadTransition, j)
		}
	}
	for j := i; j < len(narrow.Boundaries); j++ {
		if narrow.Boundaries[j].Compare(wide.Boundaries[j+1]) != 0 {
			return fmt.Errorf("%w: boundary %d changed", ErrBadTransition, j)
		}
	}
	// Strict ordering of wide.Boundaries (incl. the inserted one against
	// its neighbors) is already guaranteed by wide.Validate().
	return nil
}
