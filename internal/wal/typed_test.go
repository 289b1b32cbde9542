package wal

import (
	"path/filepath"
	"testing"

	"edgeauth/internal/schema"
)

func testTuple(id int64, payload string) schema.Tuple {
	return schema.Tuple{Values: []schema.Datum{schema.Int64(id), schema.Str(payload)}}
}

func TestTypedRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "typed.wal")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every insert commits as a RecBatch, one tuple or many.
	batch := []schema.Tuple{testTuple(7, "seven"), testTuple(8, "eight")}
	if _, err := l.Append(RecBatch, EncodeBatchPayload(batch)); err != nil {
		t.Fatal(err)
	}
	lo, hi := schema.Int64(3), schema.Int64(9)
	if _, err := l.Append(RecDelete, EncodeDeletePayload(&lo, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(RecDelete, EncodeDeletePayload(&lo, &hi)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(RecDelete, EncodeDeletePayload(nil, nil)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var ops []Op
	if err := ReplayOps(path, func(op Op) error {
		ops = append(ops, op)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ops) != 4 {
		t.Fatalf("replayed %d ops, want 4", len(ops))
	}
	// The batch replays as the one op it was written as.
	if ops[0].Kind != RecBatch || ops[0].LSN != 1 || len(ops[0].Tuples) != 2 {
		t.Fatalf("op0 = %+v", ops[0])
	}
	if got := ops[0].Tuples[1].Values[0].I; got != 8 {
		t.Fatalf("second batch key = %d", got)
	}
	if ops[1].Kind != RecDelete || ops[1].Lo == nil || ops[1].Hi != nil {
		t.Fatalf("op1 = %+v", ops[1])
	}
	if ops[2].Lo.I != 3 || ops[2].Hi.I != 9 {
		t.Fatalf("op2 bounds = %v %v", ops[2].Lo, ops[2].Hi)
	}
	if ops[3].Lo != nil || ops[3].Hi != nil {
		t.Fatalf("op3 bounds = %v %v", ops[3].Lo, ops[3].Hi)
	}
}

func TestParseOpRejectsGarbage(t *testing.T) {
	if _, err := ParseOp(Record{LSN: 1, Type: RecBatch, Payload: []byte{0, 0, 0, 1, 0xFF}}); err == nil {
		t.Fatal("garbage batch payload accepted")
	}
	// Type 1, the retired single-tuple insert, has no reader.
	if _, err := ParseOp(Record{LSN: 1, Type: RecordType(1), Payload: testTuple(7, "seven").EncodeBytes()}); err == nil {
		t.Fatal("retired single-insert record accepted")
	}
	if _, err := ParseOp(Record{LSN: 1, Type: RecDelete, Payload: []byte{1}}); err == nil {
		t.Fatal("truncated delete payload accepted")
	}
	if _, err := ParseOp(Record{LSN: 1, Type: RecordType(99)}); err == nil {
		t.Fatal("unknown record type accepted")
	}
	op, err := ParseOp(Record{LSN: 5, Type: RecCheckpoint})
	if err != nil || op.LSN != 5 || op.Kind != RecCheckpoint {
		t.Fatalf("checkpoint parse: %+v, %v", op, err)
	}
}
