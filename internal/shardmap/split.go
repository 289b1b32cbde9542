package shardmap

import (
	"errors"
	"fmt"
	"sort"

	"edgeauth/internal/schema"
)

// Strategy names the boundary-selection policy of the initial partition.
// There is one, SplitByCount; the type and Split's parameter remain only
// because the benchmark harness passes them (ROADMAP 9(0) deletes both).
type Strategy string

// SplitByCount picks boundaries so each shard receives an equal share of
// the build tuples — balanced for the build distribution.
const SplitByCount Strategy = "count"

// Split computes the N-1 boundary keys partitioning tuples (sorted or
// unsorted) into n range shards by count; strat must be SplitByCount.
// The returned boundaries are strictly increasing; fewer than n-1 may be
// returned when the data cannot support n distinct shards
// (duplicate-heavy or tiny tables), in which case the caller builds
// fewer shards.
func Split(sch *schema.Schema, tuples []schema.Tuple, n int, strat Strategy) ([]schema.Datum, error) {
	if strat != SplitByCount {
		return nil, fmt.Errorf("shardmap: unknown split strategy %q", strat)
	}
	if n < 1 {
		return nil, errors.New("shardmap: shard count must be >= 1")
	}
	if n == 1 || len(tuples) == 0 {
		return nil, nil
	}
	keys := make([]schema.Datum, len(tuples))
	for i, t := range tuples {
		if len(t.Values) <= sch.Key {
			return nil, fmt.Errorf("shardmap: tuple %d has no key column", i)
		}
		keys[i] = t.Key(sch)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Compare(keys[j]) < 0 })
	return splitCount(keys, n), nil
}

// splitCount picks every (len/n)-th key as a boundary, deduplicating so
// boundaries stay strictly increasing.
func splitCount(sorted []schema.Datum, n int) []schema.Datum {
	var out []schema.Datum
	for i := 1; i < n; i++ {
		idx := i * len(sorted) / n
		if idx <= 0 || idx >= len(sorted) {
			continue
		}
		b := sorted[idx]
		if b.Compare(sorted[0]) <= 0 {
			continue // a boundary at or below the minimum key splits nothing off
		}
		if len(out) > 0 && out[len(out)-1].Compare(b) >= 0 {
			continue
		}
		out = append(out, b)
	}
	return out
}

// Partition groups tuples by the shard each belongs to under the given
// boundaries (len(boundaries)+1 groups). Order within a group follows
// the input order.
func Partition(sch *schema.Schema, tuples []schema.Tuple, boundaries []schema.Datum) [][]schema.Tuple {
	m := &Map{Boundaries: boundaries}
	groups := make([][]schema.Tuple, len(boundaries)+1)
	for _, t := range tuples {
		i := m.ShardFor(t.Key(sch))
		groups[i] = append(groups[i], t)
	}
	return groups
}
