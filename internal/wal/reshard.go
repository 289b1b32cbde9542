package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

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
	var out []byte
	if op.Split {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	var u4 [4]byte
	var u8 [8]byte
	binary.BigEndian.PutUint32(u4[:], op.Shard)
	out = append(out, u4[:]...)
	if op.Boundary != nil {
		out = append(out, 1)
		out = op.Boundary.Encode(out)
	} else {
		out = append(out, 0)
	}
	for _, ids := range [][]uint64{op.RetiredIDs, op.NewIDs} {
		binary.BigEndian.PutUint32(u4[:], uint32(len(ids)))
		out = append(out, u4[:]...)
		for _, id := range ids {
			binary.BigEndian.PutUint64(u8[:], id)
			out = append(out, u8[:]...)
		}
	}
	binary.BigEndian.PutUint64(u8[:], op.MapEpoch)
	out = append(out, u8[:]...)
	binary.BigEndian.PutUint64(u8[:], op.ParentEpoch)
	out = append(out, u8[:]...)
	return out
}

// DecodeReshardPayload parses a payload written by EncodeReshardPayload.
func DecodeReshardPayload(payload []byte) (*ReshardOp, error) {
	op := &ReshardOp{}
	off := 0
	need := func(n int) bool { return off+n <= len(payload) }
	if !need(5) {
		return nil, errors.New("wal: truncated reshard payload")
	}
	if payload[off] > 1 {
		return nil, fmt.Errorf("wal: reshard split byte %d", payload[off])
	}
	op.Split = payload[off] == 1
	off++
	op.Shard = binary.BigEndian.Uint32(payload[off:])
	off += 4
	if !need(1) {
		return nil, errors.New("wal: truncated reshard payload")
	}
	if payload[off] > 1 {
		return nil, fmt.Errorf("wal: reshard boundary presence byte %d", payload[off])
	}
	hasBoundary := payload[off] == 1
	off++
	if hasBoundary {
		d, used, err := schema.DecodeDatum(payload[off:])
		if err != nil {
			return nil, fmt.Errorf("wal: reshard boundary: %w", err)
		}
		off += used
		op.Boundary = &d
	}
	for _, dst := range []*[]uint64{&op.RetiredIDs, &op.NewIDs} {
		if !need(4) {
			return nil, errors.New("wal: truncated reshard payload")
		}
		n := int(binary.BigEndian.Uint32(payload[off:]))
		off += 4
		if n < 0 || n > len(payload) {
			return nil, fmt.Errorf("wal: implausible reshard ID count %d", n)
		}
		for i := 0; i < n; i++ {
			if !need(8) {
				return nil, errors.New("wal: truncated reshard payload")
			}
			*dst = append(*dst, binary.BigEndian.Uint64(payload[off:]))
			off += 8
		}
	}
	if !need(16) {
		return nil, errors.New("wal: truncated reshard payload")
	}
	op.MapEpoch = binary.BigEndian.Uint64(payload[off:])
	off += 8
	op.ParentEpoch = binary.BigEndian.Uint64(payload[off:])
	off += 8
	if off != len(payload) {
		return nil, errors.New("wal: trailing bytes in reshard payload")
	}
	return op, nil
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
	var out []byte
	var u4 [4]byte
	var u8 [8]byte
	binary.BigEndian.PutUint64(u8[:], cp.MapEpoch)
	out = append(out, u8[:]...)
	binary.BigEndian.PutUint64(u8[:], cp.NextShardID)
	out = append(out, u8[:]...)
	binary.BigEndian.PutUint32(u4[:], uint32(len(cp.ShardIDs)))
	out = append(out, u4[:]...)
	for _, id := range cp.ShardIDs {
		binary.BigEndian.PutUint64(u8[:], id)
		out = append(out, u8[:]...)
	}
	binary.BigEndian.PutUint32(u4[:], uint32(len(cp.Boundaries)))
	out = append(out, u4[:]...)
	for i := range cp.Boundaries {
		out = cp.Boundaries[i].Encode(out)
	}
	return out
}

// DecodePartitionCheckpoint parses a payload written by
// EncodePartitionCheckpoint.
func DecodePartitionCheckpoint(payload []byte) (*PartitionCheckpoint, error) {
	cp := &PartitionCheckpoint{}
	off := 0
	need := func(n int) bool { return off+n <= len(payload) }
	if !need(16) {
		return nil, errors.New("wal: truncated partition checkpoint")
	}
	cp.MapEpoch = binary.BigEndian.Uint64(payload[off:])
	off += 8
	cp.NextShardID = binary.BigEndian.Uint64(payload[off:])
	off += 8
	if !need(4) {
		return nil, errors.New("wal: truncated partition checkpoint")
	}
	n := int(binary.BigEndian.Uint32(payload[off:]))
	off += 4
	if n < 0 || n > len(payload) {
		return nil, fmt.Errorf("wal: implausible checkpoint shard count %d", n)
	}
	for i := 0; i < n; i++ {
		if !need(8) {
			return nil, errors.New("wal: truncated partition checkpoint")
		}
		cp.ShardIDs = append(cp.ShardIDs, binary.BigEndian.Uint64(payload[off:]))
		off += 8
	}
	if !need(4) {
		return nil, errors.New("wal: truncated partition checkpoint")
	}
	nb := int(binary.BigEndian.Uint32(payload[off:]))
	off += 4
	if nb < 0 || nb > len(payload) {
		return nil, fmt.Errorf("wal: implausible checkpoint boundary count %d", nb)
	}
	for i := 0; i < nb; i++ {
		d, used, err := schema.DecodeDatum(payload[off:])
		if err != nil {
			return nil, fmt.Errorf("wal: checkpoint boundary %d: %w", i, err)
		}
		off += used
		cp.Boundaries = append(cp.Boundaries, d)
	}
	if off != len(payload) {
		return nil, errors.New("wal: trailing bytes in partition checkpoint")
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
