package vo

import (
	"encoding/binary"
	"errors"
	"fmt"

	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
)

// StoredTuple is the on-heap representation of a base-table row in the
// paper's Figure 3: the tuple values together with the digest of every
// attribute — in a VB-tree the raw ordered digest, in the Naive baseline
// the signed formula-(1) digest, which it ships directly. Edge servers
// read these records to build D_P sets for projections.
type StoredTuple struct {
	Tuple schema.Tuple
	// AttrSigs holds one attribute digest per column, in schema column
	// order.
	AttrSigs []sig.Signature
}

// Validate checks that the signature count matches the value count.
func (s *StoredTuple) Validate() error {
	if len(s.AttrSigs) != len(s.Tuple.Values) {
		return fmt.Errorf("vo: stored tuple has %d signatures for %d values",
			len(s.AttrSigs), len(s.Tuple.Values))
	}
	return nil
}

// WireSize returns the encoded size in bytes.
func (s *StoredTuple) WireSize() int {
	sz := s.Tuple.WireSize() + 2
	for _, as := range s.AttrSigs {
		sz += 4 + len(as)
	}
	return sz
}

// Encode appends the stored-tuple wire form.
func (s *StoredTuple) Encode(dst []byte) []byte {
	dst = s.Tuple.Encode(dst)
	var b2 [2]byte
	binary.BigEndian.PutUint16(b2[:], uint16(len(s.AttrSigs)))
	dst = append(dst, b2[:]...)
	for _, as := range s.AttrSigs {
		dst = appendSig(dst, as)
	}
	return dst
}

// EncodeBytes returns Encode into a fresh slice.
func (s *StoredTuple) EncodeBytes() []byte {
	return s.Encode(make([]byte, 0, s.WireSize()))
}

// DecodeStoredTuple parses a stored tuple, returning bytes consumed. The
// attribute signatures are slices of data: valid until data is modified
// or reused.
func DecodeStoredTuple(data []byte) (*StoredTuple, int, error) {
	t, off, err := schema.DecodeTuple(data)
	if err != nil {
		return nil, 0, fmt.Errorf("vo: stored tuple: %w", err)
	}
	if len(data[off:]) < 2 {
		return nil, 0, errors.New("vo: truncated signature count")
	}
	n := int(binary.BigEndian.Uint16(data[off : off+2]))
	off += 2
	if n > len(data[off:])/minStoredSig {
		return nil, 0, errors.New("vo: implausible signature count")
	}
	st := &StoredTuple{Tuple: t, AttrSigs: make([]sig.Signature, 0, n)}
	for i := 0; i < n; i++ {
		s, used, err := readSig(data[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("vo: attr signature %d: %w", i, err)
		}
		st.AttrSigs = append(st.AttrSigs, s)
		off += used
	}
	if err := st.Validate(); err != nil {
		return nil, 0, err
	}
	return st, off, nil
}

// StoredView is a stored tuple parsed to offsets: where each column's
// encoded value and each attribute signature sits in the record, with
// nothing decoded or copied. The query path reads heap records through
// it and copies the fields an answer needs straight into the response.
// Every slice a StoredView returns is a slice of the record last given
// to Parse: valid until that record is — for a record read in place from
// a pinned page, until the pin is released. The zero value is ready to
// use, and Parse reuses its offset table from one record to the next.
type StoredView struct {
	rec []byte
	// off holds, for a record of n columns, n+1 value bounds and then n+1
	// signature bounds: off[i]..off[i+1] bounds column i's encoded datum,
	// off[n+1+i]..off[n+2+i] attribute i's signature with its length
	// prefix.
	off []int
}

// Parse points the view at an encoded stored tuple.
func (sv *StoredView) Parse(rec []byte) error {
	if len(rec) < 2 {
		return errors.New("vo: stored tuple: truncated tuple header")
	}
	n := int(binary.BigEndian.Uint16(rec[:2]))
	if n > len(rec)/schema.MinDatumSize {
		return errors.New("vo: stored tuple: implausible value count")
	}
	sv.rec = rec
	if cap(sv.off) < 2*(n+1) {
		sv.off = make([]int, 0, 2*(n+1))
	}
	sv.off = append(sv.off[:0], 2)
	off := 2
	for i := 0; i < n; i++ {
		used, err := schema.DatumSize(rec[off:])
		if err != nil {
			return fmt.Errorf("vo: stored tuple: value %d: %w", i, err)
		}
		off += used
		sv.off = append(sv.off, off)
	}
	if len(rec[off:]) < 2 {
		return errors.New("vo: truncated signature count")
	}
	if ns := int(binary.BigEndian.Uint16(rec[off : off+2])); ns != n {
		return fmt.Errorf("vo: stored tuple has %d signatures for %d values", ns, n)
	}
	off += 2
	sv.off = append(sv.off, off)
	for i := 0; i < n; i++ {
		_, used, err := readSig(rec[off:])
		if err != nil {
			return fmt.Errorf("vo: attr signature %d: %w", i, err)
		}
		off += used
		sv.off = append(sv.off, off)
	}
	return nil
}

// Offsets returns the table Parse filled, 2·(NumColumns()+1) entries, valid
// until the next Parse. A caller that will read the record's fields
// again later keeps a copy and hands it to StoredViewAt instead of
// parsing the record a second time.
func (sv *StoredView) Offsets() []int { return sv.off }

// StoredViewAt returns the view of rec that a Parse of rec filled
// offsets from (see Offsets). The view shares offsets: it is for reading
// fields, not for parsing another record.
func StoredViewAt(rec []byte, offsets []int) StoredView {
	return StoredView{rec: rec, off: offsets}
}

// NumColumns returns how many values (and signatures) the record holds.
func (sv *StoredView) NumColumns() int { return len(sv.off)/2 - 1 }

// Value returns column i's value in its wire encoding (schema.Datum.Encode).
func (sv *StoredView) Value(i int) []byte { return sv.rec[sv.off[i]:sv.off[i+1]] }

// Datum decodes column i's value; the datum owns its payload.
func (sv *StoredView) Datum(i int) (schema.Datum, error) {
	d, _, err := schema.DecodeDatum(sv.Value(i))
	return d, err
}

// AttrSig returns attribute i's stored digest.
func (sv *StoredView) AttrSig(i int) []byte {
	s := sv.off[len(sv.off)/2:]
	return sv.rec[s[i]+4 : s[i+1]]
}
