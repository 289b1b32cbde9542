package wal

import (
	"fmt"

	"edgeauth/internal/codec"
	"edgeauth/internal/schema"
)

// Typed records: the logical view of the log the central server replays to
// derive delta updates for edge replicas. The payload encodings here are
// the single source of truth — the central server writes them, recovery
// and delta propagation read them back.

// Op is a parsed log record: the logical update a record describes.
type Op struct {
	LSN  uint64
	Kind RecordType
	// Tuples is set for RecBatch (a group-committed insert batch).
	Tuples []schema.Tuple
	// Lo/Hi bound the key range for RecDelete; nil means unbounded.
	Lo, Hi *schema.Datum
	// Reshard is set for RecReshard (a partition split/merge transition
	// in a table's meta log) and for RecReshardBegin/RecReshardAbort
	// (the incremental transition's build-phase bracket records).
	Reshard *ReshardOp
	// Checkpoint is set for a RecCheckpoint in a table's meta log whose
	// payload carries the full partition state; nil for the bare
	// per-shard checkpoint records.
	Checkpoint *PartitionCheckpoint
}

// EncodeBatchPayload serializes a group-committed insert batch:
// u32 count, then each tuple's encoding.
func EncodeBatchPayload(tuples []schema.Tuple) []byte {
	out := codec.AppendU32(nil, uint32(len(tuples)))
	for _, tup := range tuples {
		out = tup.Encode(out)
	}
	return out
}

// DecodeBatchPayload parses a payload written by EncodeBatchPayload.
func DecodeBatchPayload(payload []byte) ([]schema.Tuple, error) {
	r := codec.NewReader("wal", payload)
	n := r.Count("batch count", codec.MinTuple)
	tuples := make([]schema.Tuple, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		tuples = append(tuples, r.Tuple("batch tuple"))
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return tuples, nil
}

// EncodeDeletePayload serializes a key-range delete's payload: a
// presence flag, then the datum if present, for each bound.
func EncodeDeletePayload(lo, hi *schema.Datum) []byte {
	return appendBound(appendBound(nil, lo), hi)
}

// DecodeDeletePayload parses a payload written by EncodeDeletePayload.
func DecodeDeletePayload(payload []byte) (lo, hi *schema.Datum, err error) {
	r := codec.NewReader("wal", payload)
	lo, hi = readBound(&r), readBound(&r)
	if err := r.Done(); err != nil {
		return nil, nil, err
	}
	return lo, hi, nil
}

// appendBound appends an optional datum: a presence flag, then d.
func appendBound(out []byte, d *schema.Datum) []byte {
	if out = codec.AppendFlag(out, d != nil); d != nil {
		out = d.Encode(out)
	}
	return out
}

// readBound reads what appendBound wrote.
func readBound(r *codec.Reader) *schema.Datum {
	if !r.Flag("bound flag") {
		return nil
	}
	d := r.Datum("bound")
	return &d
}

// ParseOp decodes a record into its logical operation. Checkpoint records
// parse to an Op with only LSN and Kind set.
func ParseOp(r Record) (Op, error) {
	op := Op{LSN: r.LSN, Kind: r.Type}
	switch r.Type {
	case RecDelete:
		lo, hi, err := DecodeDeletePayload(r.Payload)
		if err != nil {
			return Op{}, fmt.Errorf("wal: delete record %d: %w", r.LSN, err)
		}
		op.Lo, op.Hi = lo, hi
	case RecBatch:
		tuples, err := DecodeBatchPayload(r.Payload)
		if err != nil {
			return Op{}, fmt.Errorf("wal: batch record %d: %w", r.LSN, err)
		}
		op.Tuples = tuples
	case RecReshard, RecReshardBegin, RecReshardAbort:
		rop, err := DecodeReshardPayload(r.Payload)
		if err != nil {
			return Op{}, fmt.Errorf("wal: reshard record %d: %w", r.LSN, err)
		}
		op.Reshard = rop
	case RecCheckpoint:
		if len(r.Payload) > 0 {
			cp, err := DecodePartitionCheckpoint(r.Payload)
			if err != nil {
				return Op{}, fmt.Errorf("wal: checkpoint record %d: %w", r.LSN, err)
			}
			op.Checkpoint = cp
		}
	default:
		return Op{}, fmt.Errorf("wal: record %d has unknown type %v", r.LSN, r.Type)
	}
	return op, nil
}

// ReplayOps calls fn with the typed form of every record after the last
// checkpoint, in LSN order: one op per record, a batch as it was written.
func ReplayOps(path string, fn func(Op) error) error {
	return Replay(path, func(r Record) error {
		op, err := ParseOp(r)
		if err != nil {
			return err
		}
		return fn(op)
	})
}
