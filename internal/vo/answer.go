package vo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"edgeauth/internal/digest"
)

// An answer is the result set and the VO of one query in the form they
// travel in, each behind its length:
//
//	u32 len | ResultSet.Encode | u32 len | VO.Encode
//
// AppendAnswer builds one from the structs. AnswerWriter builds the same
// bytes from the fields themselves, for an edge server that reads them
// off pinned pages and has no use for the structs.

// AppendAnswer appends the answer holding rs and w.
func AppendAnswer(dst []byte, rs *ResultSet, w *VO) []byte {
	rsLen, voLen := rs.WireSize(), w.WireSize()
	dst = slices.Grow(dst, 4+rsLen+4+voLen)
	dst = binary.BigEndian.AppendUint32(dst, uint32(rsLen))
	dst = rs.Encode(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(voLen))
	return w.Encode(dst)
}

// DecodeAnswer parses an answer, every byte of it: an accepted answer
// re-encodes to exactly the bytes it was parsed from. The result set and
// the VO are views of data (see DecodeResultSet and DecodeVO): valid
// until data is modified or reused.
func DecodeAnswer(data []byte) (*ResultSet, *VO, error) {
	rsb, n, err := section(data)
	if err != nil {
		return nil, nil, fmt.Errorf("vo: result set: %w", err)
	}
	vb, m, err := section(data[n:])
	if err != nil {
		return nil, nil, fmt.Errorf("vo: verification object: %w", err)
	}
	if n+m != len(data) {
		return nil, nil, fmt.Errorf("vo: %d trailing bytes after the answer", len(data)-n-m)
	}
	// The result set and the VO share one allocation.
	both := new(struct {
		rs ResultSet
		w  VO
	})
	used, err := both.rs.decode(rsb)
	if err != nil {
		return nil, nil, err
	}
	if used != len(rsb) {
		return nil, nil, fmt.Errorf("vo: %d trailing bytes after the result set", len(rsb)-used)
	}
	if used, err = both.w.decode(vb); err != nil {
		return nil, nil, err
	}
	if used != len(vb) {
		return nil, nil, fmt.Errorf("vo: %d trailing bytes after the VO", len(vb)-used)
	}
	return &both.rs, &both.w, nil
}

// TimestampAt locates what a server that stores an answer and serves it
// again must rewrite and count: at is the offset in answer of the eight
// bytes of its VO's Timestamp, voBytes the VO's encoded size.
func TimestampAt(answer []byte) (at, voBytes int, err error) {
	_, n, err := section(answer)
	if err != nil {
		return 0, 0, fmt.Errorf("vo: result set: %w", err)
	}
	vb, _, err := section(answer[n:])
	if err != nil {
		return 0, 0, fmt.Errorf("vo: verification object: %w", err)
	}
	if len(vb) < 4+8 {
		return 0, 0, errors.New("vo: truncated VO header")
	}
	return n + 4 + 4, len(vb), nil
}

// section returns the u32-length-prefixed section at the start of data
// and the bytes it takes up, prefix included.
func section(data []byte) ([]byte, int, error) {
	if len(data) < 4 {
		return nil, 0, errors.New("truncated length")
	}
	n := int(binary.BigEndian.Uint32(data[:4]))
	if n < 0 || len(data)-4 < n {
		return nil, 0, errors.New("truncated")
	}
	return data[4 : 4+n], 4 + n, nil
}

// AnswerSizes adds up what an answer will hold, so that AnswerWriter can
// lay the whole answer out before the first field is copied in.
type AnswerSizes struct {
	rows, rowBytes int
	ds, dp         int
}

// Row counts one result row whose key datum and projected values take
// keyLen and valuesLen bytes in their wire encoding.
func (s *AnswerSizes) Row(keyLen, valuesLen int) {
	s.rows++
	s.rowBytes += keyLen + 2 + valuesLen
}

// DS counts n D_S digests.
func (s *AnswerSizes) DS(n int) { s.ds += n }

// DP counts n D_P digests.
func (s *AnswerSizes) DP(n int) { s.dp += n }

// AnswerWriter writes one answer field by field. Result rows, D_S
// digests and D_P digests may arrive interleaved — a traversal meets
// them in tree order — because Begin has already placed each of the
// three runs in the one output buffer.
type AnswerWriter struct {
	buf []byte
	// Write cursor and end of each run.
	row, rowEnd int
	ds, dsEnd   int
	dp, dpEnd   int
	voBytes     int
	// ragged records that DS or DP was handed a digest that is not
	// digest.Size bytes.
	ragged bool
}

// Begin lays the answer out at the end of dst and writes everything but
// the rows and digests: rs supplies the relation identity and column
// names, w the key version, timestamp, top level, top digest, root
// signature and node records (their Keys, Tuples, DS and DP are not
// read), sz what Row, DS and DP will then be called with.
func (a *AnswerWriter) Begin(dst []byte, rs *ResultSet, w *VO, sz AnswerSizes) {
	rsHead := 2 + len(rs.DB) + 2 + len(rs.Table) + 2
	for _, c := range rs.Columns {
		rsHead += 2 + len(c)
	}
	rsLen := rsHead + 4 + sz.rowBytes
	dsBytes, dpBytes := sz.ds*digest.Size, sz.dp*digest.Size
	a.voBytes = voFixedSize + len(w.TopDigest) + len(w.RootSig) + len(w.Nodes) + dsBytes + dpBytes

	buf := slices.Grow(dst, 4+rsLen+4+a.voBytes)
	buf = binary.BigEndian.AppendUint32(buf, uint32(rsLen))
	buf = appendStr16(buf, rs.DB)
	buf = appendStr16(buf, rs.Table)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(rs.Columns)))
	for _, c := range rs.Columns {
		buf = appendStr16(buf, c)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(sz.rows))
	a.row, a.rowEnd = len(buf), len(buf)+sz.rowBytes
	buf = buf[:a.rowEnd]

	buf = binary.BigEndian.AppendUint32(buf, uint32(a.voBytes))
	buf = w.appendHead(buf, sz.ds, sz.dp)
	a.ds, a.dsEnd = len(buf), len(buf)+dsBytes
	buf = buf[:a.dsEnd]
	buf = binary.BigEndian.AppendUint32(buf, uint32(sz.dp))
	a.dp, a.dpEnd = len(buf), len(buf)+dpBytes
	a.buf = buf[:a.dpEnd]
}

// put copies b to cursor *at of the run ending at end. A field that
// would overrun its run is not written; Finish reports the overrun.
func (a *AnswerWriter) put(at *int, end int, b []byte) {
	if *at+len(b) <= end {
		copy(a.buf[*at:], b)
	}
	*at += len(b)
}

// Row starts a result row: its key datum in wire encoding and how many
// values follow by Value.
func (a *AnswerWriter) Row(key []byte, values int) {
	a.put(&a.row, a.rowEnd, key)
	a.put(&a.row, a.rowEnd, []byte{byte(values >> 8), byte(values)})
}

// Value appends one value, in wire encoding, to the row last started.
func (a *AnswerWriter) Value(enc []byte) { a.put(&a.row, a.rowEnd, enc) }

// DS appends one D_S digest.
func (a *AnswerWriter) DS(d []byte) {
	a.ragged = a.ragged || len(d) != digest.Size
	a.put(&a.ds, a.dsEnd, d)
}

// DP appends one D_P digest.
func (a *AnswerWriter) DP(d []byte) {
	a.ragged = a.ragged || len(d) != digest.Size
	a.put(&a.dp, a.dpEnd, d)
}

// VOBytes returns the encoded size of the answer's VO.
func (a *AnswerWriter) VOBytes() int { return a.voBytes }

// Finish returns the buffer Begin was given with the answer appended. It
// fails if the fields written do not add up to the sizes Begin was
// given, or a digest was not digest.Size bytes — a bug in the caller or
// a corrupt page, caught before a malformed frame leaves.
func (a *AnswerWriter) Finish() ([]byte, error) {
	if a.ragged {
		return nil, fmt.Errorf("vo: answer digests are not all %d bytes wide, the one width its layout has", digest.Size)
	}
	if a.row != a.rowEnd || a.ds != a.dsEnd || a.dp != a.dpEnd {
		return nil, fmt.Errorf("vo: answer fields do not fill their layout (rows %+d, D_S %+d, D_P %+d bytes)",
			a.row-a.rowEnd, a.ds-a.dsEnd, a.dp-a.dpEnd)
	}
	return a.buf, nil
}
