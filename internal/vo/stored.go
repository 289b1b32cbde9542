package vo

import (
	"encoding/binary"
	"errors"
	"fmt"

	"edgeauth/internal/digest"
	"edgeauth/internal/schema"
)

// StoredTuple is a VB-tree heap record: a base-table row as the
// paper's Figure 3 stores it, the tuple values together with its column
// commitment — the raw ordered digest of every non-key attribute and the
// group digests of the column tree over them (package digest). Edge
// servers read these records, in place (StoredView), to copy the D_P
// proof of a projection. The record is
//
//	Tuple.Encode | u16 digest.CommitmentVersion | digests
//
// where digests is the attribute digests of the non-key columns in schema
// order and then the column tree's group digests level by level,
// digest.ColumnDigests(values) of digest.Size bytes, and nothing follows
// them.
type StoredTuple struct {
	Tuple schema.Tuple
	// Digests is the column commitment as the record stores it, one run
	// of digest.Size-byte digests.
	Digests []byte
}

// ErrCommitmentVersion marks a heap record written under a commitment
// this build does not compute.
var ErrCommitmentVersion = errors.New("vo: heap record of another commitment version")

// storedHead is what a record holds between its values and its digests:
// the commitment version.
const storedHead = 2

// Validate checks that the digests are the run the values call for.
func (s *StoredTuple) Validate() error {
	if want := digest.ColumnDigests(len(s.Tuple.Values)) * digest.Size; len(s.Digests) != want {
		return fmt.Errorf("vo: stored tuple of %d values has %d digest bytes, want %d",
			len(s.Tuple.Values), len(s.Digests), want)
	}
	return nil
}

// WireSize returns the encoded size in bytes.
func (s *StoredTuple) WireSize() int {
	return s.Tuple.WireSize() + storedHead + len(s.Digests)
}

// Encode appends the stored-tuple record.
func (s *StoredTuple) Encode(dst []byte) []byte {
	dst = s.Tuple.Encode(dst)
	dst = binary.BigEndian.AppendUint16(dst, digest.CommitmentVersion)
	return append(dst, s.Digests...)
}

// EncodeBytes returns Encode into a fresh slice.
func (s *StoredTuple) EncodeBytes() []byte {
	return s.Encode(make([]byte, 0, s.WireSize()))
}

// DecodeStoredTuple parses a whole stored-tuple record. The digests are a
// slice of data: valid until data is modified or reused.
func DecodeStoredTuple(data []byte) (*StoredTuple, error) {
	t, off, err := schema.DecodeTuple(data)
	if err != nil {
		return nil, fmt.Errorf("vo: stored tuple: %w", err)
	}
	ds, err := digestRun(data, off, len(t.Values))
	if err != nil {
		return nil, err
	}
	return &StoredTuple{Tuple: t, Digests: data[ds:len(data):len(data)]}, nil
}

// digestRun checks the part of a record of n values after its values,
// which begins at off — the commitment version, then exactly the digests
// the values call for — and returns where the digests begin.
func digestRun(rec []byte, off, n int) (int, error) {
	if len(rec[off:]) < storedHead {
		return 0, errors.New("vo: stored tuple: truncated commitment version")
	}
	switch v := int(binary.BigEndian.Uint16(rec[off:])); v {
	case digest.CommitmentVersion:
	case n:
		// Commitment version 6 stored a digest count here, one per value,
		// and each digest behind a u32 length.
		return 0, fmt.Errorf("%w: a digest for each of its %d columns, the key's included (commitment version 6); this build computes version %d",
			ErrCommitmentVersion, n, digest.CommitmentVersion)
	default:
		return 0, fmt.Errorf("%w: version %d; this build computes version %d", ErrCommitmentVersion, v, digest.CommitmentVersion)
	}
	off += storedHead
	if want := digest.ColumnDigests(n) * digest.Size; len(rec[off:]) != want {
		return 0, fmt.Errorf("vo: stored tuple of %d values has %d digest bytes, want %d", n, len(rec[off:]), want)
	}
	return off, nil
}

// StoredView is a stored tuple parsed to offsets: where each column's
// encoded value and each digest sits in the record, with nothing decoded
// or copied. The query path reads heap records through it and copies the
// fields an answer needs straight into the response. Every slice a
// StoredView returns is a slice of the record last given to Parse: valid
// until that record is — for a record read in place from a pinned page,
// until the pin is released. The zero value is ready to use, and Parse
// reuses its offset table from one record to the next.
type StoredView struct {
	rec []byte
	// off holds, for a record of n columns, the n+1 value bounds:
	// off[i]..off[i+1] bounds column i's encoded datum. The digests begin
	// storedHead bytes after off[n].
	off []int
}

// Parse points the view at an encoded stored tuple. It accepts exactly
// the records DecodeStoredTuple accepts.
func (sv *StoredView) Parse(rec []byte) error {
	if len(rec) < 2 {
		return errors.New("vo: stored tuple: truncated tuple header")
	}
	n := int(binary.BigEndian.Uint16(rec[:2]))
	if n > len(rec)/schema.MinDatumSize {
		return errors.New("vo: stored tuple: implausible value count")
	}
	sv.rec = rec
	if cap(sv.off) < n+1 {
		sv.off = make([]int, 0, n+1)
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
	_, err := digestRun(rec, off, n)
	return err
}

// Offsets returns the table Parse filled, NumColumns()+1 entries, valid
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

// NumColumns returns how many values the record holds.
func (sv *StoredView) NumColumns() int { return len(sv.off) - 1 }

// Value returns column i's value in its wire encoding (schema.Datum.Encode).
func (sv *StoredView) Value(i int) []byte { return sv.rec[sv.off[i]:sv.off[i+1]] }

// Datum decodes column i's value; the datum owns its payload.
func (sv *StoredView) Datum(i int) (schema.Datum, error) {
	d, _, err := schema.DecodeDatum(sv.Value(i))
	return d, err
}

// Digest returns digest k of the record's column commitment (see
// StoredTuple).
func (sv *StoredView) Digest(k int) []byte {
	at := sv.off[len(sv.off)-1] + storedHead + k*digest.Size
	return sv.rec[at : at+digest.Size : at+digest.Size]
}
