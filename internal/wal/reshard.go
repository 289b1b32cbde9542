package wal

import (
	"edgeauth/internal/codec"
	"edgeauth/internal/schema"
)

// ReshardOp is the typed payload of a RecReshard record: one online
// partition transition. The central server appends it to the table's
// meta log before publishing the new map epoch, so restart recovery can
// replay the partition history — which shard WALs exist, which are
// retired — alongside the per-shard tuple histories.
type ReshardOp struct {
	// Split is true for a boundary insert (one shard became two), false
	// for a merge (two adjacent shards became one).
	Split bool
	// Shard is the partition index the transition applied to in the
	// parent generation: the shard that was split, or the left shard of
	// the merged pair.
	Shard uint32
	// Boundary is the inserted split key (splits only; nil for merges —
	// the removed boundary is implied by Shard).
	Boundary *schema.Datum
	// RetiredIDs and NewIDs are the stable shard identities destroyed
	// and created by the transition (1->2 for a split, 2->1 for a merge).
	RetiredIDs []uint64
	NewIDs     []uint64
	// MapEpoch and ParentEpoch mirror the signed map's generation link.
	MapEpoch    uint64
	ParentEpoch uint64
}

// EncodeReshardPayload serializes a transition record.
func EncodeReshardPayload(op *ReshardOp) []byte {
	out := codec.AppendFlag(nil, op.Split)
	out = codec.AppendU32(out, op.Shard)
	out = appendBound(out, op.Boundary)
	out = appendIDs(out, op.RetiredIDs)
	out = appendIDs(out, op.NewIDs)
	out = codec.AppendU64(out, op.MapEpoch)
	return codec.AppendU64(out, op.ParentEpoch)
}

// DecodeReshardPayload parses a payload written by EncodeReshardPayload.
func DecodeReshardPayload(payload []byte) (*ReshardOp, error) {
	r := codec.NewReader("wal", payload)
	op := &ReshardOp{Split: r.Flag("reshard split flag")}
	op.Shard = r.U32("reshard shard")
	op.Boundary = readBound(&r)
	op.RetiredIDs = readIDs(&r, "retired ID count")
	op.NewIDs = readIDs(&r, "new ID count")
	op.MapEpoch = r.U64("map epoch")
	op.ParentEpoch = r.U64("parent epoch")
	if err := r.Done(); err != nil {
		return nil, err
	}
	return op, nil
}

// appendIDs appends a u32 count, then each shard ID.
func appendIDs(out []byte, ids []uint64) []byte {
	out = codec.AppendU32(out, uint32(len(ids)))
	for _, id := range ids {
		out = codec.AppendU64(out, id)
	}
	return out
}

// readIDs reads what appendIDs wrote: nil for none.
func readIDs(r *codec.Reader, what string) []uint64 {
	n := r.Count(what, 8)
	if n == 0 {
		return nil
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = r.U64("shard ID")
	}
	return ids
}

// PartitionCheckpoint is the typed payload of a RecCheckpoint record in
// a table's meta log: the full partition state as of the checkpoint, so
// recovery can seat the partition directly instead of replaying every
// RecReshard of a long split/merge history. Transitions recorded before
// the checkpoint are already reflected in it.
type PartitionCheckpoint struct {
	// MapEpoch is the signed map epoch the checkpointed partition was
	// published under.
	MapEpoch uint64
	// NextShardID is the allocator watermark: stable IDs below it are
	// burned and must never be reused, even for retired shards.
	NextShardID uint64
	// ShardIDs are the live shards' stable identities, in partition
	// order; Boundaries are the len(ShardIDs)-1 interior split keys.
	ShardIDs   []uint64
	Boundaries []schema.Datum
}

// EncodePartitionCheckpoint serializes a checkpoint payload.
func EncodePartitionCheckpoint(cp *PartitionCheckpoint) []byte {
	out := codec.AppendU64(nil, cp.MapEpoch)
	out = codec.AppendU64(out, cp.NextShardID)
	out = appendIDs(out, cp.ShardIDs)
	out = codec.AppendU32(out, uint32(len(cp.Boundaries)))
	for i := range cp.Boundaries {
		out = cp.Boundaries[i].Encode(out)
	}
	return out
}

// DecodePartitionCheckpoint parses a payload written by
// EncodePartitionCheckpoint.
func DecodePartitionCheckpoint(payload []byte) (*PartitionCheckpoint, error) {
	r := codec.NewReader("wal", payload)
	cp := &PartitionCheckpoint{MapEpoch: r.U64("checkpoint map epoch")}
	cp.NextShardID = r.U64("next shard ID")
	cp.ShardIDs = readIDs(&r, "checkpoint shard count")
	if n := r.Count("checkpoint boundary count", schema.MinDatumSize); n > 0 {
		cp.Boundaries = make([]schema.Datum, n)
		for i := range cp.Boundaries {
			cp.Boundaries[i] = r.Datum("checkpoint boundary")
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return cp, nil
}

// LastCheckpoint scans a meta log for its most recent partition
// checkpoint and returns it decoded, or nil if the log has none.
// Replay/ReplayOps skip everything at or before this record, so the
// returned state is exactly what a replayer must seed itself with.
func LastCheckpoint(path string) (*PartitionCheckpoint, error) {
	var last []byte
	if err := ReplayAll(path, func(r Record) error {
		if r.Type == RecCheckpoint && len(r.Payload) > 0 {
			last = append(last[:0], r.Payload...)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if last == nil {
		return nil, nil
	}
	return DecodePartitionCheckpoint(last)
}
