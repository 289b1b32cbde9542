package vo

import (
	"encoding/binary"
	"errors"
	"fmt"

	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
)

// StoredTuple is the on-heap representation of a base-table row in the
// paper's Figure 3: the tuple values together with the signed digest of
// every attribute (formula (1)). Edge servers read these records to build
// D_P sets for projections, and the Naive baseline ships the signatures
// directly.
type StoredTuple struct {
	Tuple schema.Tuple
	// AttrSigs holds one signed attribute digest per column, in schema
	// column order.
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
	if n > len(data[off:])/minDPEntry {
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
// use, and Parse reuses its offset tables from one record to the next.
type StoredView struct {
	rec []byte
	// val[i]..val[i+1] bounds column i's encoded datum; sig[i]..sig[i+1]
	// bounds attribute i's signature with its length prefix.
	val, sig []int
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
	if cap(sv.val) <= n {
		sv.val, sv.sig = make([]int, 0, n+1), make([]int, 0, n+1)
	}
	sv.val, sv.sig = append(sv.val[:0], 2), sv.sig[:0]
	off := 2
	for i := 0; i < n; i++ {
		used, err := schema.DatumSize(rec[off:])
		if err != nil {
			return fmt.Errorf("vo: stored tuple: value %d: %w", i, err)
		}
		off += used
		sv.val = append(sv.val, off)
	}
	if len(rec[off:]) < 2 {
		return errors.New("vo: truncated signature count")
	}
	if ns := int(binary.BigEndian.Uint16(rec[off : off+2])); ns != n {
		return fmt.Errorf("vo: stored tuple has %d signatures for %d values", ns, n)
	}
	off += 2
	sv.sig = append(sv.sig, off)
	for i := 0; i < n; i++ {
		_, used, err := readSig(rec[off:])
		if err != nil {
			return fmt.Errorf("vo: attr signature %d: %w", i, err)
		}
		off += used
		sv.sig = append(sv.sig, off)
	}
	return nil
}

// NumColumns returns how many values (and signatures) the record holds.
func (sv *StoredView) NumColumns() int { return len(sv.val) - 1 }

// Value returns column i's value in its wire encoding (schema.Datum.Encode).
func (sv *StoredView) Value(i int) []byte { return sv.rec[sv.val[i]:sv.val[i+1]] }

// Datum decodes column i's value; the datum owns its payload.
func (sv *StoredView) Datum(i int) (schema.Datum, error) {
	d, _, err := schema.DecodeDatum(sv.Value(i))
	return d, err
}

// AttrSig returns attribute i's signed digest.
func (sv *StoredView) AttrSig(i int) []byte { return sv.rec[sv.sig[i]+4 : sv.sig[i+1]] }
