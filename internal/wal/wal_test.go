package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 20; i++ {
		typ := RecBatch
		if i%3 == 0 {
			typ = RecDelete
		}
		payload := []byte(fmt.Sprintf("payload-%d", i))
		lsn, err := l.Append(typ, payload)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
		want = append(want, Record{LSN: lsn, Type: typ, Payload: payload})
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Record
	if err := ReplayAll(path, func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].LSN != want[i].LSN || got[i].Type != want[i].Type || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestReplayFromCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.wal")
	l, _ := Create(path)
	mustAppend := func(typ RecordType, p string) {
		if _, err := l.Append(typ, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	mustAppend(RecBatch, "old-1")
	mustAppend(RecBatch, "old-2")
	mustAppend(RecCheckpoint, "")
	mustAppend(RecBatch, "new-1")
	mustAppend(RecDelete, "new-2")
	l.Close()

	var got []string
	if err := Replay(path, func(r Record) error {
		got = append(got, string(r.Payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "new-1" || got[1] != "new-2" {
		t.Fatalf("post-checkpoint replay = %v", got)
	}
}

func TestOpenResumesLSN(t *testing.T) {
	path := filepath.Join(t.TempDir(), "resume.wal")
	l, _ := Create(path)
	for i := 0; i < 5; i++ {
		if _, err := l.Append(RecBatch, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NextLSN() != 6 {
		t.Fatalf("NextLSN = %d, want 6", re.NextLSN())
	}
	lsn, err := re.Append(RecDelete, []byte("after reopen"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 6 {
		t.Fatalf("appended lsn = %d", lsn)
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	l, _ := Create(path)
	for i := 0; i < 3; i++ {
		if _, err := l.Append(RecBatch, []byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Corrupt the last record's payload byte.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var got []string
	if err := ReplayAll(path, func(r Record) error {
		got = append(got, string(r.Payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("replayed %d records from torn log, want 2", len(got))
	}
	// Open must truncate the tail and continue from LSN 3.
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NextLSN() != 3 {
		t.Fatalf("NextLSN after torn tail = %d, want 3", re.NextLSN())
	}
	if _, err := re.Append(RecBatch, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	var all []string
	re.Close()
	if err := ReplayAll(path, func(r Record) error {
		all = append(all, string(r.Payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || all[2] != "fresh" {
		t.Fatalf("log after repair = %v", all)
	}
}

func TestTruncatedHeaderTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short.wal")
	l, _ := Create(path)
	if _, err := l.Append(RecBatch, []byte("full")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Append garbage shorter than a header.
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	f.Write([]byte{1, 2, 3})
	f.Close()

	count := 0
	if err := ReplayAll(path, func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("replayed %d, want 1", count)
	}
}

func TestClosedLogRejectsAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "closed.wal")
	l, _ := Create(path)
	l.Close()
	if _, err := l.Append(RecBatch, nil); err == nil {
		t.Fatal("append on closed log succeeded")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("sync on closed log succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestReplayErrorPropagates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "err.wal")
	l, _ := Create(path)
	l.Append(RecBatch, []byte("x"))
	l.Close()
	wantErr := fmt.Errorf("boom")
	err := ReplayAll(path, func(Record) error { return wantErr })
	if err == nil {
		t.Fatal("replay error swallowed")
	}
}

func TestRecordTypeString(t *testing.T) {
	if RecBatch.String() != "batch" || RecDelete.String() != "delete" || RecCheckpoint.String() != "checkpoint" {
		t.Fatal("RecordType rendering")
	}
	if RecordType(99).String() == "" {
		t.Fatal("unknown type should render")
	}
}

// TestOpenBoundsTornLengthByFileSize: a torn tail whose header claims a
// gigabyte is found torn before anything of that size is allocated.
func TestOpenBoundsTornLengthByFileSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.wal")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(RecBatch, []byte("good")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	good, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, headerSize)
	binary.BigEndian.PutUint32(hdr[4:8], 1<<30)
	binary.BigEndian.PutUint64(hdr[8:16], 2)
	hdr[16] = byte(RecBatch)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(hdr); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	re, err := Open(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("Open allocated %d bytes for a torn 1 GiB header, want < 1 MiB", grew)
	}
	if re.NextLSN() != 2 {
		t.Fatalf("NextLSN = %d, want 2: the good record kept, the torn one dropped", re.NextLSN())
	}
	if st, err := os.Stat(path); err != nil || st.Size() != good.Size() {
		t.Fatalf("log is %v bytes after Open (err %v), want the good record's %d", st.Size(), err, good.Size())
	}
}
