// Package vo defines the verification object (VO) and result-set types
// exchanged between edge servers and clients, together with their binary
// wire codecs.
//
// A VO proves a query result against the signed root digest of the
// VB-tree. The tree commits by ordered hashes (digest.CommitNode): a
// node's digest is the root of an in-node Merkle tree over its ordered
// entries. A VO carries the envelope of the answer from the root down —
// one record per node holding a result row, and the root's — and, for
// each, the in-node proof of the positions the answer recomputes: one
// digest for every in-node subtree holding none of them. The verifier
// recomputes the root digest from the rows and these digests and checks
// the one signature, over the root, that the VO carries beside it.
//
// One practical note the paper leaves implicit: the tuple hash binds the
// tuple's primary key, so the result set always carries each tuple's key,
// even when the key column itself is projected away. The key column has
// no attribute digest of its own, so it never travels in D_P: a verifier
// checks a returned key column against the row's key instead.
//
// # Wire layout
//
//	u32 keyVersion | i64 timestamp | u8 topLevel | 0x80
//	u32 len + TopDigest | u32 len + RootSig | node records
//	u16 W | u32 nDS | nDS × W bytes | u32 nDP | nDP × W bytes
//
// The level byte's high bit (orderedFlag; levels stay below 128) marks
// the layout, and a VO without it is refused. TopDigest is the raw root
// digest and RootSig the central's signature over it. The node records
// follow, in pre-order:
//
//	u16 n | u16 nRuns | nRuns × (u16 start, u16 len)
//
// one per envelope node: its entry count and the positions the answer
// recomputes — the result rows of a leaf, the children holding them of an
// internal node, whose records follow in position order. D_S is each
// node's in-node proof (digest.Shape AppendSiblings), node by node in the
// records' order; D_P each row's column proof, row by row: the proof of
// the projected non-key columns in the tuple's column tree
// (digest.ColumnShape AppendSiblings), one digest for every column
// subtree holding none of them — the same number for every row of an
// answer, since every row has its projection. Every digest of both is
// W = digest.Size bytes, and W is 0 exactly when there is none. Formula
// (9) charges a VO (|D_P| + |D_S| + 1)·D bytes of digests, and those are
// the digest bytes it carries, behind one width rather than each behind
// its own length.
// The records are canonical — at most one run each, non-empty, every
// record but the root's naming a position — or DecodeVO refuses them; a
// verifier also refuses a VO whose D_S is not exactly what they call for.
// An answer is every row of a contiguous key range (the client applies
// the rest of a query), which recomputes one run in each node.
//
// The VO struct holds D_S and D_P in that same shape: VO.DS is the
// nDS × W run and VO.DP the nDP × W run, each one []byte. NumDS, DSDigest,
// NumDP and DPDigest read them; AppendDS and AppendDP build them. Decoding
// a VO costs one allocation whatever it carries — no slice header per
// digest for the collector to scan.
//
// # Lifetime of decoded values
//
// The decoders (DecodeVO, DecodeResultSet, DecodeAnswer, DecodeStoredTuple,
// StoredView.Parse) copy nothing: every digest, signature, run and bytes
// value they return is a slice of the input, and string values share one
// conversion of it. What they return is valid, and must be treated as
// read-only, for as long as the input buffer is neither modified nor
// reused; a caller that keeps a digest past that point clones it. Every
// such slice is capped at its own end, so appending to a decoded run
// (AppendDS, AppendDP) copies it rather than writing into the input.
package vo

import (
	"encoding/binary"
	"errors"
	"fmt"

	"edgeauth/internal/digest"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
)

// VO is the verification object for one query result.
type VO struct {
	// Timestamp is when the edge produced the response (Unix seconds);
	// clients check it against the key version's validity window.
	Timestamp int64
	// KeyVersion identifies which central-server public key signed the
	// root (paper §3.4 key rotation).
	KeyVersion uint32
	// TopLevel is the tree's height: the level of the root (leaf = 1).
	TopLevel uint8
	// TopDigest is the raw, unsigned root digest.
	TopDigest sig.Signature
	// RootSig is the central's signature over TopDigest. The client
	// checks it under the key its TRUSTED registry resolves KeyVersion
	// to, never under a scheme the VO names.
	RootSig sig.Signature
	// DS is the D_S set as it travels: the in-node proofs of the node
	// records, NumDS() digests of digest.Size bytes.
	DS []byte
	// DP is the D_P set — digests of the attributes filtered out by
	// projection — as it travels: NumDP() digests of digest.Size bytes.
	DP []byte
	// Nodes is the envelope's node records (see the package comment).
	Nodes []byte
}

// orderedFlag marks the ordered layout in the level byte on the wire.
const orderedFlag = 0x80

// NumDS returns how many D_S digests the VO carries.
func (v *VO) NumDS() int { return len(v.DS) / digest.Size }

// NumDP returns how many D_P digests the VO carries.
func (v *VO) NumDP() int { return len(v.DP) / digest.Size }

// DSDigest returns D_S digest i, a view of the run: writing to it
// rewrites the digest.
func (v *VO) DSDigest(i int) sig.Signature { return runDigest(v.DS, i) }

// DPDigest returns D_P digest i, a view of the run: writing to it
// rewrites the digest.
func (v *VO) DPDigest(i int) sig.Signature { return runDigest(v.DP, i) }

func runDigest(run []byte, i int) sig.Signature {
	at := i * digest.Size
	return sig.Signature(run[at : at+digest.Size : at+digest.Size])
}

// AppendDS appends a D_S digest.
func (v *VO) AppendDS(d []byte) { v.DS = appendDigest(v.DS, d) }

// AppendDP appends a D_P digest.
func (v *VO) AppendDP(d []byte) { v.DP = appendDigest(v.DP, d) }

// appendDigest appends d to a run, and panics if d is not digest.Size
// bytes: a run has one width, so a VO cannot hold such a digest at all.
func appendDigest(run, d []byte) []byte {
	if len(d) != digest.Size {
		panic(fmt.Sprintf("vo: a %d-byte digest in a VO of %d-byte digests", len(d), digest.Size))
	}
	return append(run, d...)
}

// CheckRuns reports whether DS and DP are whole runs of digest.Size-byte
// digests — always so for a decoded VO and for one built by AppendDS and
// AppendDP.
func (v *VO) CheckRuns() error {
	if len(v.DS)%digest.Size != 0 || len(v.DP)%digest.Size != 0 {
		return fmt.Errorf("vo: %d bytes of D_S and %d of D_P are not runs of %d-byte digests", len(v.DS), len(v.DP), digest.Size)
	}
	return nil
}

// NumDigests returns the total digests carried (the paper's VO size
// accounting unit).
func (v *VO) NumDigests() int { return 1 + v.NumDS() + v.NumDP() }

// voFixedSize is what a VO takes up beside its digests, node records and
// root signature: key version, timestamp, top level, the lengths of the
// top digest and the root signature, the digest width and the two counts.
const voFixedSize = 4 + 8 + 1 + 4 + 4 + 2 + 4 + 4

// WireSize returns the exact encoded size in bytes: formula (9)'s
// (|D_P| + |D_S| + 1)·D plus the node records, the root signature and
// voFixedSize.
func (v *VO) WireSize() int {
	return voFixedSize + len(v.TopDigest) + len(v.RootSig) + len(v.Nodes) + len(v.DS) + len(v.DP)
}

func appendSig(dst []byte, s sig.Signature) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// readSig returns the length-prefixed signature at the start of data as a
// slice of data.
func readSig(data []byte) (sig.Signature, int, error) {
	if len(data) < 4 {
		return nil, 0, errors.New("vo: truncated signature length")
	}
	n := int(binary.BigEndian.Uint32(data[:4]))
	if n < 0 || len(data) < 4+n {
		return nil, 0, errors.New("vo: truncated signature")
	}
	return sig.Signature(data[4 : 4+n : 4+n]), 4 + n, nil
}

// width is the digest width W a VO of this many D_S and D_P digests
// carries on the wire: 0 exactly when there is none.
func width(digests int) int {
	if digests == 0 {
		return 0
	}
	return digest.Size
}

// appendHead appends the VO wire form up to and including the D_S count:
// everything in front of the first digest.
func (v *VO) appendHead(dst []byte, nDS, nDP int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, v.KeyVersion)
	dst = binary.BigEndian.AppendUint64(dst, uint64(v.Timestamp))
	dst = append(dst, v.TopLevel|orderedFlag)
	dst = appendSig(dst, v.TopDigest)
	dst = appendSig(dst, v.RootSig)
	dst = append(dst, v.Nodes...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(width(nDS+nDP)))
	return binary.BigEndian.AppendUint32(dst, uint32(nDS))
}

// Encode appends the VO wire form (the package comment has the layout):
// the two runs as they are, behind their width and counts. The top
// digest and the root signature keep their own lengths. A VO whose runs
// fail CheckRuns has no wire form, and Encode panics on it: writing one
// anyway would hand the peer digests cut at the wrong places.
func (v *VO) Encode(dst []byte) []byte {
	if err := v.CheckRuns(); err != nil {
		panic(err.Error())
	}
	dst = v.appendHead(dst, v.NumDS(), v.NumDP())
	dst = append(dst, v.DS...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(v.NumDP()))
	return append(dst, v.DP...)
}

// minRow is the shortest encoding of a result row, a key datum and a
// value count, by which the decoder bounds a claimed row count before
// allocating for it. (A VO's D_S and D_P runs are bounded by their width
// and allocate nothing.)
const minRow = schema.MinDatumSize + 2

// DecodeVO parses a VO, returning bytes consumed. The VO's digests and
// runs are slices of data: valid until data is modified or reused. Only
// the VO itself is allocated, however many digests it carries.
func DecodeVO(data []byte) (*VO, int, error) {
	v := new(VO)
	n, err := v.decode(data)
	if err != nil {
		return nil, 0, err
	}
	return v, n, nil
}

// decode is DecodeVO into v.
func (v *VO) decode(data []byte) (int, error) {
	if len(data) < 4+8+1 {
		return 0, errors.New("vo: truncated VO header")
	}
	if data[12]&orderedFlag == 0 {
		return 0, errors.New("vo: VO does not have the ordered layout")
	}
	*v = VO{
		KeyVersion: binary.BigEndian.Uint32(data[0:4]),
		Timestamp:  int64(binary.BigEndian.Uint64(data[4:12])),
		TopLevel:   data[12] &^ orderedFlag,
	}
	off := 13
	s, n, err := readSig(data[off:])
	if err != nil {
		return 0, fmt.Errorf("vo: top digest: %w", err)
	}
	v.TopDigest = s
	off += n
	s, n, err = readSig(data[off:])
	if err != nil {
		return 0, fmt.Errorf("vo: root signature: %w", err)
	}
	if len(s) > 0 {
		v.RootSig = s
	}
	off += n
	n, _, err = walkNodes(data[off:], int(v.TopLevel), true)
	if err != nil {
		return 0, err
	}
	v.Nodes = data[off : off+n : off+n]
	off += n
	if len(data[off:]) < 2+4 {
		return 0, errors.New("vo: truncated digest width and DS count")
	}
	w := int(binary.BigEndian.Uint16(data[off : off+2]))
	dsCount := int(binary.BigEndian.Uint32(data[off+2 : off+6]))
	off += 6
	// Each count is checked against the bytes left before it sizes a run.
	run := func(count int) ([]byte, bool) {
		if count < 0 || count > len(data[off:])/digest.Size {
			return nil, false
		}
		end := off + count*digest.Size
		r := data[off:end:end]
		off = end
		return r, true
	}
	var ok bool
	if v.DS, ok = run(dsCount); !ok {
		return 0, errors.New("vo: implausible DS count")
	}
	if len(data[off:]) < 4 {
		return 0, errors.New("vo: truncated DP count")
	}
	dpCount := int(binary.BigEndian.Uint32(data[off : off+4]))
	off += 4
	if v.DP, ok = run(dpCount); !ok {
		return 0, errors.New("vo: implausible DP count")
	}
	if w != width(dsCount+dpCount) {
		return 0, fmt.Errorf("vo: digest width %d with %d digests, want %d", w, dsCount+dpCount, width(dsCount+dpCount))
	}
	return off, nil
}

// minRecord is the shortest record of a node below the root: a count, a
// run count and one run.
const minRecord = 4 + digest.RunSize

// Envelope checks the ordered layout's node records against the VO's
// level — every record canonical, and together exactly Nodes — and
// returns how many result rows they recompute. The work is proportional
// to len(Nodes), whatever counts the records claim.
func (v *VO) Envelope() (rows int, err error) {
	n, rows, err := walkNodes(v.Nodes, int(v.TopLevel), true)
	if err != nil {
		return 0, err
	}
	if n != len(v.Nodes) {
		return 0, fmt.Errorf("vo: %d bytes after the node records", len(v.Nodes)-n)
	}
	return rows, nil
}

// AppendNodeRecord appends the ordered layout's record of one node: its
// entry count and the runs (digest.RunSize bytes each) of the positions
// the answer recomputes.
func AppendNodeRecord(dst []byte, count int, runs []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(count))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(runs)/digest.RunSize))
	return append(dst, runs...)
}

// NodeRecord reads the node record at the start of b: the entry count,
// the runs (a view of b) and the bytes after the record. It checks only
// that the record is whole; CheckRuns judges the runs.
func NodeRecord(b []byte) (count int, runs, rest []byte, err error) {
	if len(b) < 4 {
		return 0, nil, nil, errors.New("vo: truncated node record")
	}
	count = int(binary.BigEndian.Uint16(b))
	n := int(binary.BigEndian.Uint16(b[2:]))
	if n > len(b[4:])/digest.RunSize {
		return 0, nil, nil, errors.New("vo: truncated node runs")
	}
	end := 4 + n*digest.RunSize
	return count, b[4:end:end], b[end:], nil
}

// walkNodes parses the node record at the start of data, of a node at the
// given level, and the records of its recomputed children under it. It
// returns the bytes they take and the result rows they recompute.
func walkNodes(data []byte, level int, root bool) (n, rows int, err error) {
	if level < 1 {
		return 0, 0, fmt.Errorf("vo: node record at level %d", level)
	}
	count, runs, rest, err := NodeRecord(data)
	if err != nil {
		return 0, 0, err
	}
	n = len(data) - len(rest)
	if len(runs) > digest.RunSize {
		return 0, 0, errors.New("vo: a node record names more than one run")
	}
	pos, err := digest.CheckRuns(runs, count)
	if err != nil {
		return 0, 0, fmt.Errorf("vo: %w", err)
	}
	if pos == 0 && !root {
		return 0, 0, errors.New("vo: a node record below the root names no position")
	}
	if level == 1 {
		return n, pos, nil
	}
	if pos > len(data[n:])/minRecord {
		return 0, 0, errors.New("vo: more recomputed children than node records")
	}
	for ; pos > 0; pos-- {
		m, r, err := walkNodes(data[n:], level-1, false)
		if err != nil {
			return 0, 0, err
		}
		n, rows = n+m, rows+r
	}
	return n, rows, nil
}

// ResultSet is the verifiable payload of a query answer.
type ResultSet struct {
	// DB and Table identify the base relation (bound into every attribute
	// hash, so results cannot be replayed across tables).
	DB    string
	Table string
	// Columns are the returned column names, in tuple order.
	Columns []string
	// Keys holds each result tuple's primary-key datum; required by the
	// verifier to recompute attribute hashes.
	Keys []schema.Datum
	// Tuples are the result rows, with len(Values) == len(Columns).
	Tuples []schema.Tuple
}

// Validate checks internal consistency.
func (r *ResultSet) Validate() error {
	if r.DB == "" || r.Table == "" {
		return errors.New("vo: result set missing relation identity")
	}
	if len(r.Keys) != len(r.Tuples) {
		return fmt.Errorf("vo: %d keys for %d tuples", len(r.Keys), len(r.Tuples))
	}
	for i, t := range r.Tuples {
		if len(t.Values) != len(r.Columns) {
			return fmt.Errorf("vo: tuple %d has %d values for %d columns", i, len(t.Values), len(r.Columns))
		}
	}
	return nil
}

// WireSize returns the exact encoded size in bytes.
func (r *ResultSet) WireSize() int {
	sz := 2 + len(r.DB) + 2 + len(r.Table) + 2
	for _, c := range r.Columns {
		sz += 2 + len(c)
	}
	sz += 4
	for i := range r.Tuples {
		sz += r.Keys[i].WireSize() + r.Tuples[i].WireSize()
	}
	return sz
}

func appendStr16(dst []byte, s string) []byte {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], uint16(len(s)))
	dst = append(dst, b[:]...)
	return append(dst, s...)
}

// Encode appends the result-set wire form.
func (r *ResultSet) Encode(dst []byte) []byte {
	dst = appendStr16(dst, r.DB)
	dst = appendStr16(dst, r.Table)
	var b2 [2]byte
	binary.BigEndian.PutUint16(b2[:], uint16(len(r.Columns)))
	dst = append(dst, b2[:]...)
	for _, c := range r.Columns {
		dst = appendStr16(dst, c)
	}
	var b4 [4]byte
	binary.BigEndian.PutUint32(b4[:], uint32(len(r.Tuples)))
	dst = append(dst, b4[:]...)
	for i := range r.Tuples {
		dst = r.Keys[i].Encode(dst)
		dst = r.Tuples[i].Encode(dst)
	}
	return dst
}

// DecodeResultSet parses a result set, returning bytes consumed. Names and
// string values are substrings of one string conversion of data, the
// values of all rows sit in one slab, and bytes values are slices of
// data: valid until data is modified or reused.
func DecodeResultSet(data []byte) (*ResultSet, int, error) {
	r := new(ResultSet)
	n, err := r.decode(data)
	if err != nil {
		return nil, 0, err
	}
	return r, n, nil
}

// decode is DecodeResultSet into r.
func (r *ResultSet) decode(data []byte) (int, error) {
	str := string(data)
	n, err := strLen16(data)
	if err != nil {
		return 0, fmt.Errorf("vo: db name: %w", err)
	}
	r.DB = str[2:n]
	off := n
	n, err = strLen16(data[off:])
	if err != nil {
		return 0, fmt.Errorf("vo: table name: %w", err)
	}
	r.Table = str[off+2 : off+n]
	off += n
	if len(data[off:]) < 2 {
		return 0, errors.New("vo: truncated column count")
	}
	nc := int(binary.BigEndian.Uint16(data[off : off+2]))
	off += 2
	if nc > len(data[off:])/2 {
		return 0, errors.New("vo: implausible column count")
	}
	r.Columns = make([]string, nc)
	for i := 0; i < nc; i++ {
		n, err := strLen16(data[off:])
		if err != nil {
			return 0, fmt.Errorf("vo: column %d: %w", i, err)
		}
		r.Columns[i] = str[off+2 : off+n]
		off += n
	}
	if len(data[off:]) < 4 {
		return 0, errors.New("vo: truncated tuple count")
	}
	nt := int(binary.BigEndian.Uint32(data[off : off+4]))
	off += 4
	if nt < 0 || nt > len(data[off:])/minRow {
		return 0, errors.New("vo: implausible tuple count")
	}
	r.Keys = make([]schema.Datum, 0, nt)
	r.Tuples = make([]schema.Tuple, 0, nt)
	// One slab for every row's values, sized for the honest case of nc
	// values a row; a row that claims more than is left gets its own.
	slab := make([]schema.Datum, 0, min(nt*nc, len(data[off:])/schema.MinDatumSize))
	for i := 0; i < nt; i++ {
		k, n, err := schema.DecodeDatumView(data[off:], str[off:])
		if err != nil {
			return 0, fmt.Errorf("vo: key %d: %w", i, err)
		}
		off += n
		if len(data[off:]) < 2 {
			return 0, fmt.Errorf("vo: tuple %d: truncated tuple header", i)
		}
		nv := int(binary.BigEndian.Uint16(data[off : off+2]))
		off += 2
		if nv > len(data[off:])/schema.MinDatumSize {
			return 0, fmt.Errorf("vo: tuple %d: implausible value count", i)
		}
		if nv > cap(slab)-len(slab) {
			slab = make([]schema.Datum, 0, nv)
		}
		vals := slab[len(slab) : len(slab)+nv : len(slab)+nv]
		slab = slab[:len(slab)+nv]
		for j := range vals {
			if vals[j], n, err = schema.DecodeDatumView(data[off:], str[off:]); err != nil {
				return 0, fmt.Errorf("vo: tuple %d: value %d: %w", i, j, err)
			}
			off += n
		}
		r.Keys = append(r.Keys, k)
		r.Tuples = append(r.Tuples, schema.Tuple{Values: vals})
	}
	return off, nil
}

// strLen16 returns the encoded length (prefix included) of the u16-length
// string at the start of data.
func strLen16(data []byte) (int, error) {
	if len(data) < 2 {
		return 0, errors.New("vo: truncated string length")
	}
	n := int(binary.BigEndian.Uint16(data[:2]))
	if len(data) < 2+n {
		return 0, errors.New("vo: truncated string")
	}
	return 2 + n, nil
}
