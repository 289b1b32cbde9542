// Package wal implements a write-ahead log for the central server's
// update transactions. Insert batches and deletes are logged before the
// VB-tree and its digests are modified, so a crash mid-update can be
// recovered by replaying the log against the last snapshot (redo logging).
//
// Record format (all big-endian):
//
//	crc32(4) | length(4) | lsn(8) | type(1) | payload
//
// where crc32 covers everything after itself. Replay stops cleanly at the
// first torn or corrupt record, which is the expected state after a crash
// during Append.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// RecordType tags what a log record describes.
type RecordType uint8

const (
	// Type 1 logged a single-tuple insert, which no writer has produced
	// since every insert became a RecBatch. It stays reserved: the other
	// types' values are on disk.
	_ RecordType = iota + 1
	// RecDelete logs a key-range delete; payload encodes the range.
	RecDelete
	// RecCheckpoint marks that all prior records are reflected in a
	// durable snapshot and can be skipped on recovery.
	RecCheckpoint
	// RecBatch logs a group-committed insert batch as one record (one
	// append, one fsync for the whole batch); payload encodes the tuples.
	RecBatch
	// RecReshard logs a partition transition (online shard split or
	// merge) in the table's meta log; payload encodes the transition so
	// restart recovery replays the partition history, not just the
	// per-shard tuple histories.
	RecReshard
	// RecReshardBegin marks the start of an incremental transition's
	// build phase in the meta log. A Begin with no matching RecReshard
	// or RecReshardAbort means the process died mid-build; the child
	// WALs it names are garbage, the parent generation is authoritative.
	RecReshardBegin
	// RecReshardAbort marks a begun transition as abandoned (build or
	// catch-up failed); the parent generation remains authoritative.
	RecReshardAbort
)

func (r RecordType) String() string {
	switch r {
	case RecDelete:
		return "delete"
	case RecCheckpoint:
		return "checkpoint"
	case RecBatch:
		return "batch"
	case RecReshard:
		return "reshard"
	case RecReshardBegin:
		return "reshard-begin"
	case RecReshardAbort:
		return "reshard-abort"
	default:
		return fmt.Sprintf("RecordType(%d)", uint8(r))
	}
}

// Record is one log entry.
type Record struct {
	LSN     uint64
	Type    RecordType
	Payload []byte
}

const headerSize = 4 + 4 + 8 + 1

// Log is an append-only write-ahead log backed by a file.
type Log struct {
	mu      sync.Mutex
	f       *os.File
	nextLSN uint64
	size    int64
}

// Create creates (truncating) a log at path.
func Create(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: creating log: %w", err)
	}
	return &Log{f: f, nextLSN: 1}, nil
}

// Open opens an existing log, scanning it to find the next LSN and the
// valid prefix length. A torn tail is truncated away.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening log: %w", err)
	}
	l := &Log{f: f, nextLSN: 1}
	recs, validLen, err := scan(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if len(recs) > 0 {
		l.nextLSN = recs[len(recs)-1].LSN + 1
	}
	l.size = validLen
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	return l, nil
}

// Append writes a record and returns its LSN. The record is durable only
// after Sync.
func (l *Log) Append(t RecordType, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, errors.New("wal: log closed")
	}
	lsn := l.nextLSN
	buf := make([]byte, headerSize+len(payload))
	binary.BigEndian.PutUint32(buf[4:8], uint32(len(payload)))
	binary.BigEndian.PutUint64(buf[8:16], lsn)
	buf[16] = byte(t)
	copy(buf[headerSize:], payload)
	crc := crc32.ChecksumIEEE(buf[4:])
	binary.BigEndian.PutUint32(buf[0:4], crc)
	if _, err := l.f.WriteAt(buf, l.size); err != nil {
		return 0, fmt.Errorf("wal: appending record: %w", err)
	}
	l.size += int64(len(buf))
	l.nextLSN++
	return lsn, nil
}

// Sync flushes the log to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("wal: log closed")
	}
	return l.f.Sync()
}

// Close closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Replay calls fn for every record after the last checkpoint, in order.
// Use ReplayAll to include pre-checkpoint records.
func Replay(path string, fn func(Record) error) error {
	return replay(path, fn, true)
}

// ReplayAll calls fn for every valid record in the log.
func ReplayAll(path string, fn func(Record) error) error {
	return replay(path, fn, false)
}

func replay(path string, fn func(Record) error, fromCheckpoint bool) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: opening log for replay: %w", err)
	}
	defer f.Close()
	recs, _, err := scan(f)
	if err != nil {
		return err
	}
	start := 0
	if fromCheckpoint {
		for i, r := range recs {
			if r.Type == RecCheckpoint {
				start = i + 1
			}
		}
	}
	for _, r := range recs[start:] {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// scan reads the valid record prefix, returning the records and the byte
// length of the valid prefix. A record whose declared length runs past
// the end of the file is a torn tail, found before its buffer is
// allocated.
func scan(f *os.File) ([]Record, int64, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("wal: sizing log: %w", err)
	}
	size := st.Size()
	var recs []Record
	var off int64
	hdr := make([]byte, headerSize)
	for {
		if _, err := f.ReadAt(hdr, off); err != nil {
			if errors.Is(err, io.EOF) {
				return recs, off, nil
			}
			return nil, 0, fmt.Errorf("wal: reading header: %w", err)
		}
		plen := int(binary.BigEndian.Uint32(hdr[4:8]))
		if plen > 1<<30 || int64(headerSize+plen) > size-off {
			return recs, off, nil // corrupt length, or past EOF: treat as torn tail
		}
		buf := make([]byte, headerSize+plen)
		if _, err := f.ReadAt(buf, off); err != nil {
			return recs, off, nil // torn record
		}
		wantCRC := binary.BigEndian.Uint32(buf[0:4])
		if crc32.ChecksumIEEE(buf[4:]) != wantCRC {
			return recs, off, nil // corrupt record: stop
		}
		recs = append(recs, Record{
			LSN:     binary.BigEndian.Uint64(buf[8:16]),
			Type:    RecordType(buf[16]),
			Payload: append([]byte(nil), buf[headerSize:]...),
		})
		off += int64(len(buf))
	}
}
