// Package schema defines table schemas, typed values (datums) and tuples
// for the authenticated-query system. It provides the canonical byte
// encodings that the rest of the repository depends on:
//
//   - an order-preserving key encoding, so B+-tree byte comparisons agree
//     with typed comparisons;
//   - a canonical attribute-value encoding, the "value" input of the
//     paper's attribute hash h(db|table|attr|key|value);
//   - a self-delimiting tuple wire encoding used by storage and the
//     network protocol.
package schema

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// Type enumerates the supported column types.
type Type uint8

const (
	TypeInvalid Type = iota
	TypeInt64
	TypeFloat64
	TypeString
	TypeBytes
)

func (t Type) String() string {
	switch t {
	case TypeInt64:
		return "int64"
	case TypeFloat64:
		return "float64"
	case TypeString:
		return "string"
	case TypeBytes:
		return "bytes"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Column describes one attribute of a table.
type Column struct {
	Name string
	Type Type
}

// Schema describes a table: its identity (database and table name, which
// are bound into every attribute digest), its columns, and which column is
// the primary key the VB-tree is built over.
type Schema struct {
	DB      string
	Table   string
	Columns []Column
	// Key is the index into Columns of the primary-key column.
	Key int
}

// Validate checks structural invariants.
func (s *Schema) Validate() error {
	if s.DB == "" || s.Table == "" {
		return errors.New("schema: database and table names must be non-empty")
	}
	if len(s.Columns) == 0 {
		return errors.New("schema: at least one column required")
	}
	// Every query.Compile runs this, on the client and on the edge, and a
	// schema has tens of columns: duplicates are found by looking back,
	// not through a map built per call.
	for i, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("schema: column %d has empty name", i)
		}
		if s.ColumnIndex(c.Name) != i {
			return fmt.Errorf("schema: duplicate column %q", c.Name)
		}
		switch c.Type {
		case TypeInt64, TypeFloat64, TypeString, TypeBytes:
		default:
			return fmt.Errorf("schema: column %q has invalid type %v", c.Name, c.Type)
		}
	}
	if s.Key < 0 || s.Key >= len(s.Columns) {
		return fmt.Errorf("schema: key index %d out of range", s.Key)
	}
	return nil
}

// ColumnIndex returns the index of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// KeyColumn returns the primary-key column.
func (s *Schema) KeyColumn() Column { return s.Columns[s.Key] }

// Project returns a new schema restricted to the named columns, in the
// given order. The key column need not be included (the paper's projection
// VOs still verify because filtered attributes travel as digests),
// but if it is, the projected schema keeps it as its key; otherwise Key is
// -1 and the projected schema is result-only (not indexable).
func (s *Schema) Project(cols []string) (*Schema, []int, error) {
	idx := make([]int, len(cols))
	out := &Schema{DB: s.DB, Table: s.Table, Key: -1}
	for i, name := range cols {
		j := s.ColumnIndex(name)
		if j < 0 {
			return nil, nil, fmt.Errorf("schema: unknown column %q", name)
		}
		idx[i] = j
		if j == s.Key {
			out.Key = i
		}
		out.Columns = append(out.Columns, s.Columns[j])
	}
	return out, idx, nil
}

// Datum is a typed value. Exactly one of the payload fields is meaningful,
// selected by Type.
type Datum struct {
	Type Type
	I    int64
	F    float64
	S    string
	B    []byte
}

// Int64 constructs an int64 datum.
func Int64(v int64) Datum { return Datum{Type: TypeInt64, I: v} }

// Float64 constructs a float64 datum.
func Float64(v float64) Datum { return Datum{Type: TypeFloat64, F: v} }

// Str constructs a string datum.
func Str(v string) Datum { return Datum{Type: TypeString, S: v} }

// Bytes constructs a bytes datum. The slice is not copied.
func Bytes(v []byte) Datum { return Datum{Type: TypeBytes, B: v} }

// IsZero reports whether d is the invalid zero datum.
func (d Datum) IsZero() bool { return d.Type == TypeInvalid }

// String renders the datum for humans.
func (d Datum) String() string {
	switch d.Type {
	case TypeInt64:
		return strconv.FormatInt(d.I, 10)
	case TypeFloat64:
		return strconv.FormatFloat(d.F, 'g', -1, 64)
	case TypeString:
		return strconv.Quote(d.S)
	case TypeBytes:
		return fmt.Sprintf("0x%x", d.B)
	default:
		return "<invalid>"
	}
}

// Compare orders two datums of the same type: -1, 0 or 1. Comparing
// mismatched types panics — callers validate types at plan time.
func (d Datum) Compare(o Datum) int {
	if d.Type != o.Type {
		panic(fmt.Sprintf("schema: comparing %v with %v", d.Type, o.Type))
	}
	switch d.Type {
	case TypeInt64:
		switch {
		case d.I < o.I:
			return -1
		case d.I > o.I:
			return 1
		}
		return 0
	case TypeFloat64:
		switch {
		case d.F < o.F:
			return -1
		case d.F > o.F:
			return 1
		}
		return 0
	case TypeString:
		switch {
		case d.S < o.S:
			return -1
		case d.S > o.S:
			return 1
		}
		return 0
	case TypeBytes:
		return bytes.Compare(d.B, o.B)
	default:
		panic("schema: comparing invalid datums")
	}
}

// Equal reports whether two datums have identical type and value.
func (d Datum) Equal(o Datum) bool {
	return d.Type == o.Type && d.Compare(o) == 0
}

// EncodeKey appends an order-preserving encoding of d: bytewise comparison
// of encodings agrees with Compare. Int64 uses offset-binary; float64 uses
// the standard sign-flip transform; strings and bytes are raw (keys are
// single-column, so no terminator is needed).
func (d Datum) EncodeKey(dst []byte) []byte {
	switch d.Type {
	case TypeInt64:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(d.I)^(1<<63))
		return append(dst, b[:]...)
	case TypeFloat64:
		bits := math.Float64bits(d.F)
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], bits)
		return append(dst, b[:]...)
	case TypeString:
		return append(dst, d.S...)
	case TypeBytes:
		return append(dst, d.B...)
	default:
		panic("schema: encoding invalid datum as key")
	}
}

// KeyBytes returns EncodeKey into a fresh slice.
func (d Datum) KeyBytes() []byte { return d.EncodeKey(nil) }

// Canonical appends the canonical attribute-value encoding of d — the byte
// string that is hashed as the "value" field of the paper's formula (1).
// It is type-tagged so that, e.g., int64(3) and float64(3) hash differently.
func (d Datum) Canonical(dst []byte) []byte {
	dst = append(dst, byte(d.Type))
	switch d.Type {
	case TypeInt64:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(d.I))
		return append(dst, b[:]...)
	case TypeFloat64:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], math.Float64bits(d.F))
		return append(dst, b[:]...)
	case TypeString:
		return append(dst, d.S...)
	case TypeBytes:
		return append(dst, d.B...)
	default:
		panic("schema: canonical encoding of invalid datum")
	}
}

// CanonicalBytes returns Canonical into a fresh slice.
func (d Datum) CanonicalBytes() []byte { return d.Canonical(nil) }

// WireSize returns the encoded size of d under Encode.
func (d Datum) WireSize() int {
	switch d.Type {
	case TypeInt64, TypeFloat64:
		return 1 + 8
	case TypeString:
		return 1 + 4 + len(d.S)
	case TypeBytes:
		return 1 + 4 + len(d.B)
	default:
		return 1
	}
}

// Encode appends the self-delimiting wire encoding of d.
func (d Datum) Encode(dst []byte) []byte {
	dst = append(dst, byte(d.Type))
	switch d.Type {
	case TypeInt64:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(d.I))
		return append(dst, b[:]...)
	case TypeFloat64:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], math.Float64bits(d.F))
		return append(dst, b[:]...)
	case TypeString:
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(len(d.S)))
		dst = append(dst, b[:]...)
		return append(dst, d.S...)
	case TypeBytes:
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(len(d.B)))
		dst = append(dst, b[:]...)
		return append(dst, d.B...)
	default:
		panic("schema: encoding invalid datum")
	}
}

// DecodeDatum parses one datum from data, returning it and the number of
// bytes consumed. The datum owns its payload.
func DecodeDatum(data []byte) (Datum, int, error) {
	d, n, err := DecodeDatumView(data, "")
	if d.Type == TypeBytes {
		d.B = append([]byte{}, d.B...)
	}
	return d, n, err
}

// DecodeDatumView is DecodeDatum without the payload copy: a bytes value
// is a slice of data, valid and to be read only for as long as data is.
// str is either empty or string(data); given the latter, a string value
// is a substring of it, so decoding many values costs one conversion
// instead of one allocation each.
func DecodeDatumView(data []byte, str string) (Datum, int, error) {
	n, err := DatumSize(data)
	if err != nil {
		return Datum{}, 0, err
	}
	switch t := Type(data[0]); t {
	case TypeInt64:
		return Int64(int64(binary.BigEndian.Uint64(data[1:9]))), n, nil
	case TypeFloat64:
		return Float64(math.Float64frombits(binary.BigEndian.Uint64(data[1:9]))), n, nil
	case TypeString:
		if str == "" {
			return Str(string(data[5:n])), n, nil
		}
		return Str(str[5:n]), n, nil
	default: // TypeBytes: DatumSize admits nothing else
		return Bytes(data[5:n:n]), n, nil
	}
}

// DatumSize returns the encoded length of the datum at the start of data
// without decoding its payload.
func DatumSize(data []byte) (int, error) {
	if len(data) < 1 {
		return 0, errors.New("schema: empty datum encoding")
	}
	switch Type(data[0]) {
	case TypeInt64:
		if len(data) < 9 {
			return 0, errors.New("schema: truncated int64 datum")
		}
		return 9, nil
	case TypeFloat64:
		if len(data) < 9 {
			return 0, errors.New("schema: truncated float64 datum")
		}
		return 9, nil
	case TypeString, TypeBytes:
		if len(data) < 5 {
			return 0, errors.New("schema: truncated datum header")
		}
		n := int(binary.BigEndian.Uint32(data[1:5]))
		if n < 0 || len(data) < 5+n {
			return 0, errors.New("schema: truncated datum payload")
		}
		return 5 + n, nil
	default:
		return 0, fmt.Errorf("schema: unknown datum type %d", data[0])
	}
}

// MinDatumSize is the shortest encoding DatumSize accepts (an empty string
// or bytes value): decoders bound a claimed count of datums by the bytes
// left over it.
const MinDatumSize = 5

// Tuple is one row: len(Values) == len(schema.Columns) for base-table
// tuples, or the projected column count for result tuples.
type Tuple struct {
	Values []Datum
}

// NewTuple builds a tuple from datums.
func NewTuple(vals ...Datum) Tuple { return Tuple{Values: vals} }

// Key returns the primary-key datum under s.
func (t Tuple) Key(s *Schema) Datum { return t.Values[s.Key] }

// Clone deep-copies the tuple (bytes payloads included).
func (t Tuple) Clone() Tuple {
	vals := make([]Datum, len(t.Values))
	copy(vals, t.Values)
	for i := range vals {
		if vals[i].Type == TypeBytes {
			b := make([]byte, len(vals[i].B))
			copy(b, vals[i].B)
			vals[i].B = b
		}
	}
	return Tuple{Values: vals}
}

// WireSize returns the encoded size of the tuple.
func (t Tuple) WireSize() int {
	n := 2
	for _, v := range t.Values {
		n += v.WireSize()
	}
	return n
}

// Encode appends the tuple wire encoding: u16 column count, then datums.
func (t Tuple) Encode(dst []byte) []byte {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], uint16(len(t.Values)))
	dst = append(dst, b[:]...)
	for _, v := range t.Values {
		dst = v.Encode(dst)
	}
	return dst
}

// EncodeBytes returns Encode into a fresh slice.
func (t Tuple) EncodeBytes() []byte { return t.Encode(make([]byte, 0, t.WireSize())) }

// DecodeTuple parses a tuple, returning it and the bytes consumed.
func DecodeTuple(data []byte) (Tuple, int, error) {
	if len(data) < 2 {
		return Tuple{}, 0, errors.New("schema: truncated tuple header")
	}
	n := int(binary.BigEndian.Uint16(data[0:2]))
	off := 2
	if n*MinDatumSize > len(data)-off {
		return Tuple{}, 0, fmt.Errorf("schema: tuple claims %d values in %d bytes", n, len(data)-off)
	}
	vals := make([]Datum, n)
	for i := 0; i < n; i++ {
		d, used, err := DecodeDatum(data[off:])
		if err != nil {
			return Tuple{}, 0, fmt.Errorf("schema: tuple value %d: %w", i, err)
		}
		vals[i] = d
		off += used
	}
	return Tuple{Values: vals}, off, nil
}

// String renders the tuple for humans.
func (t Tuple) String() string {
	var sb bytes.Buffer
	sb.WriteByte('(')
	for i, v := range t.Values {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.String())
	}
	sb.WriteByte(')')
	return sb.String()
}
