package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"edgeauth/internal/lock"
	"edgeauth/internal/schema"
	"edgeauth/internal/shardmap"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/wal"
	"edgeauth/internal/wire"
)

// Twins: copies of server-internal state the traced pass owns, so it can
// call the inner layers (vbtree, storage, wal, sig) through their public
// functions and time them alone. The servers' own trees and page stores
// are private; timers inside the program are ROADMAP item 4.

// readTwin mirrors the edge's per-shard page stores: filled from
// central.ShardSnapshot, kept current with the same central.ShardDelta
// payloads the edge applies.
type readTwin struct {
	stores  []*storage.PageStore
	version []uint64
	epoch   uint64
}

func newReadTwin(d *deployment) (*readTwin, error) {
	t := &readTwin{}
	for i := 0; i < numShards; i++ {
		snap, err := d.central.ShardSnapshot(table, uint32(i))
		if err != nil {
			return nil, err
		}
		store, err := storage.NewPageStore(int(snap.PageSize))
		if err != nil {
			return nil, err
		}
		ov := store.Begin()
		for ov.NumPages() <= len(snap.PageIDs) {
			ov.Allocate()
		}
		for j, id := range snap.PageIDs {
			if err := ov.WritePage(id, snap.PageData[j]); err != nil {
				ov.Abort()
				return nil, err
			}
		}
		ov.Publish(&vbtree.TableState{
			Root:       snap.Root,
			Height:     int(snap.Height),
			RootSig:    snap.RootSig,
			HeapPages:  snap.HeapPages,
			KeyVersion: snap.KeyVersion,
			Scheme:     sig.Scheme(snap.Scheme),
			Version:    snap.Version,
			Epoch:      snap.Epoch,
		})
		t.stores = append(t.stores, store)
		t.version = append(t.version, snap.Version)
		t.epoch = snap.Epoch
	}
	return t, nil
}

// apply installs a delta the way the edge does: changed pages into a
// copy-on-write overlay, re-anchored, one atomic publish.
func (t *readTwin) apply(shard int, dl *wire.Delta) error {
	if dl.SnapshotNeeded {
		return errors.New("twin: central asked for a snapshot; the changelog should cover one round")
	}
	ov := t.stores[shard].Begin()
	for ov.NumPages() < int(dl.NumPages) {
		ov.Allocate()
	}
	for j, id := range dl.PageIDs {
		if err := ov.WritePage(id, dl.PageData[j]); err != nil {
			ov.Abort()
			return err
		}
	}
	ov.Publish(&vbtree.TableState{
		Root:       dl.Root,
		Height:     int(dl.Height),
		RootSig:    dl.RootSig,
		HeapPages:  dl.HeapPages,
		KeyVersion: dl.KeyVersion,
		Scheme:     sig.Scheme(dl.Scheme),
		Version:    dl.ToVersion,
		Epoch:      dl.Epoch,
	})
	t.version[shard] = dl.ToVersion
	return nil
}

// countingReader counts the pages one query touches.
type countingReader struct {
	storage.PageReader
	views int
}

func (c *countingReader) View(id storage.PageID) ([]byte, error) {
	c.views++
	return c.PageReader.View(id)
}

// query runs vbtree.View.RunQuery on the twin of one shard, the call
// edge.RunShardQuery makes inside, and returns the pages it read.
func (t *readTwin) query(ctx context.Context, d *deployment, shard int, q vbtree.Query) (int, error) {
	snap := t.stores[shard].Acquire()
	defer snap.Release()
	st, ok := snap.Meta().(*vbtree.TableState)
	if !ok {
		return 0, errors.New("twin: store has no published state")
	}
	pages := &countingReader{PageReader: snap}
	view, err := st.ViewOver(pages, d.sch, d.central.Accumulator(), d.central.PublicKey())
	if err != nil {
		return 0, err
	}
	q.AnchorRoot = true
	if _, _, err := view.RunQuery(ctx, q); err != nil {
		return 0, err
	}
	return pages.views, nil
}

// writeTwin mirrors the central's write side: one signing VB-tree and one
// write-ahead log per shard, built the way central.buildShard builds
// them, over the table as it stands when the traced pass begins.
type writeTwin struct {
	key    *sig.PrivateKey
	bounds []schema.Datum
	trees  []*vbtree.Tree
	logs   []*wal.Log
}

func newWriteTwin(d *deployment) (*writeTwin, error) {
	key, err := sig.Generate(sig.SchemeRSAMerkle, keyBits)
	if err != nil {
		return nil, err
	}
	// The table now: the initial rows plus the runs still live.
	tuples := append(append([]schema.Tuple(nil), d.base...), tuplesFor(d.base, d.oracle.liveRuns())...)
	sort.Slice(tuples, func(i, j int) bool { return tuples[i].Values[0].I < tuples[j].Values[0].I })

	t := &writeTwin{key: key}
	if t.bounds, err = shardmap.Split(d.sch, d.base, numShards, shardmap.SplitByCount); err != nil {
		return nil, err
	}
	for i, group := range shardmap.Partition(d.sch, tuples, t.bounds) {
		mem, err := storage.NewMemPager(pageSize)
		if err != nil {
			return nil, err
		}
		pool, err := storage.NewBufferPool(mem, 1<<20)
		if err != nil {
			return nil, err
		}
		heap, err := storage.NewHeapFile(pool)
		if err != nil {
			return nil, err
		}
		tree, err := vbtree.Build(vbtree.Config{
			Pool:   pool,
			Heap:   heap,
			Schema: d.sch,
			Acc:    d.central.Accumulator(),
			Signer: key,
			Pub:    key.Public(),
			Locks:  lock.NewManager(0),
		}, group, 1.0)
		if err != nil {
			return nil, err
		}
		log, err := wal.Create(filepath.Join(d.walDir, fmt.Sprintf("twin.shard%d.wal", i)))
		if err != nil {
			return nil, err
		}
		t.trees = append(t.trees, tree)
		t.logs = append(t.logs, log)
	}
	return t, nil
}

func (t *writeTwin) close() {
	for _, l := range t.logs {
		_ = l.Close() // the twin's log backs no result
	}
}

// perShard runs fn for every shard's group at once, as central.ApplyBatch
// commits its sub-batches, and returns the first error.
func perShard(groups [][]schema.Tuple, fn func(shard int, group []schema.Tuple) error) error {
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for i := range groups {
		if len(groups[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i, groups[i])
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// logBatch appends one RecBatch record per shard and fsyncs it, the WAL
// step of a group commit; it returns the payload bytes written.
func (t *writeTwin) logBatch(groups [][]schema.Tuple) (int, error) {
	sizes := make([]int, len(groups))
	err := perShard(groups, func(i int, group []schema.Tuple) error {
		payload := wal.EncodeBatchPayload(group)
		sizes[i] = len(payload)
		if _, err := t.logs[i].Append(wal.RecBatch, payload); err != nil {
			return err
		}
		return t.logs[i].Sync()
	})
	total := 0
	for _, n := range sizes {
		total += n
	}
	return total, err
}

// insertBatch runs Tree.InsertBatch per shard, the tree step of a group
// commit; it returns the nodes re-signed.
func (t *writeTwin) insertBatch(groups [][]schema.Tuple) (int, error) {
	resigned := make([]int, len(groups))
	err := perShard(groups, func(i int, group []schema.Tuple) error {
		stats, opErrs, err := t.trees[i].InsertBatch(group)
		if err != nil {
			return err
		}
		resigned[i] = stats.NodesResigned
		return errors.Join(opErrs...)
	})
	total := 0
	for _, n := range resigned {
		total += n
	}
	return total, err
}

// deleteRuns keeps the twin trees in step with the round's deletes.
func (t *writeTwin) deleteRuns(runs []run) error {
	m := shardmap.Map{Boundaries: t.bounds}
	for _, r := range runs {
		lo, hi := schema.Int64(r.lo), schema.Int64(r.hi())
		if _, err := t.trees[m.ShardFor(lo)].DeleteRange(&lo, &hi); err != nil {
			return err
		}
	}
	return nil
}
