// Package codec is the one primitive format of every record the system
// signs, ships or logs: the wire's frame bodies, the signed shard map, the
// WAL's typed payloads and the public-key blob. Integers are big-endian; a
// string or byte run is a u32 length and its bytes; a flag is one byte, 0
// or 1; a datum or a tuple is package schema's self-delimiting encoding.
//
// Reader is the one cursor over such bytes, and it is written for
// untrusted input. Every read is bounds-checked. The first failure sticks:
// every later read returns a zero value and Done returns that failure. A
// flag other than 0 or 1 is refused, so an accepted input re-encodes as it
// came. Count bounds a claimed number of entries by the bytes left before
// the caller sizes anything by it. Each error begins with the prefix the
// Reader was made with, the name of the package whose record it reads.
package codec

import (
	"encoding/binary"
	"fmt"

	"edgeauth/internal/schema"
)

// MinTuple is the shortest tuple encoding: the u16 value count of a tuple
// with no values.
const MinTuple = 2

// AppendU8 appends v.
func AppendU8(dst []byte, v uint8) []byte { return append(dst, v) }

// AppendFlag appends v as one byte, 1 or 0.
func AppendFlag(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendU32 appends v big-endian.
func AppendU32(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }

// AppendU64 appends v big-endian.
func AppendU64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }

// AppendStr appends s behind its u32 length.
func AppendStr(dst []byte, s string) []byte { return append(AppendU32(dst, uint32(len(s))), s...) }

// AppendBytes appends b behind its u32 length.
func AppendBytes(dst []byte, b []byte) []byte { return append(AppendU32(dst, uint32(len(b))), b...) }

// Reader is a cursor over one record. The what argument of each read
// names the field in the error that read fails with.
type Reader struct {
	prefix string
	data   []byte
	off    int
	err    error
}

// NewReader returns a Reader over data whose errors begin with prefix.
func NewReader(prefix string, data []byte) Reader {
	return Reader{prefix: prefix, data: data}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// take returns the next n bytes, or nil once they are not there.
func (r *Reader) take(what string, n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)-r.off) {
		r.err = fmt.Errorf("%s: truncated %s at offset %d", r.prefix, what, r.off)
		return nil
	}
	b := r.data[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return b
}

// U8 reads one byte.
func (r *Reader) U8(what string) uint8 {
	if b := r.take(what, 1); b != nil {
		return b[0]
	}
	return 0
}

// Flag reads a presence byte: 0 or 1, anything else refused.
func (r *Reader) Flag(what string) bool {
	v := r.U8(what)
	if v > 1 {
		r.err = fmt.Errorf("%s: %s %d is neither 0 nor 1", r.prefix, what, v)
		return false
	}
	return v == 1
}

// U32 reads a big-endian u32.
func (r *Reader) U32(what string) uint32 {
	if b := r.take(what, 4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// U64 reads a big-endian u64.
func (r *Reader) U64(what string) uint64 {
	if b := r.take(what, 8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// View reads a length-prefixed byte run without copying it: the result
// is a slice of the input, capped at its end, valid until the input is
// modified or reused.
func (r *Reader) View(what string) []byte {
	n := r.U32(what)
	return r.take(what, uint64(n))
}

// Bytes is View into a copy the caller owns. An empty run is an empty
// slice, not nil.
func (r *Reader) Bytes(what string) []byte {
	v := r.View(what)
	if r.err != nil {
		return nil
	}
	return append(make([]byte, 0, len(v)), v...)
}

// Str reads a length-prefixed string.
func (r *Reader) Str(what string) string { return string(r.View(what)) }

// Count reads a u32 count of entries each at least minEach (≥ 1) bytes
// long, and refuses one the bytes left cannot hold, so a caller may size a
// slice by what it returns.
func (r *Reader) Count(what string, minEach int) int {
	n := r.U32(what)
	if left := len(r.data) - r.off; r.err == nil && uint64(n)*uint64(minEach) > uint64(left) {
		r.err = fmt.Errorf("%s: implausible %s %d: %d bytes left hold at most %d", r.prefix, what, n, left, left/minEach)
		return 0
	}
	return int(n)
}

// Datum reads one datum, which owns its payload.
func (r *Reader) Datum(what string) schema.Datum {
	if r.err != nil {
		return schema.Datum{}
	}
	d, n, err := schema.DecodeDatum(r.data[r.off:])
	if err != nil {
		r.err = fmt.Errorf("%s: %s at offset %d: %w", r.prefix, what, r.off, err)
		return schema.Datum{}
	}
	r.off += n
	return d
}

// Tuple reads one tuple, which owns its payloads.
func (r *Reader) Tuple(what string) schema.Tuple {
	if r.err != nil {
		return schema.Tuple{}
	}
	t, n, err := schema.DecodeTuple(r.data[r.off:])
	if err != nil {
		r.err = fmt.Errorf("%s: %s at offset %d: %w", r.prefix, what, r.off, err)
		return schema.Tuple{}
	}
	r.off += n
	return t
}

// Done returns the first failure, or an error if any byte is left unread.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("%s: %d trailing bytes", r.prefix, len(r.data)-r.off)
	}
	return nil
}
