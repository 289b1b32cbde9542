// Package vo defines the verification object (VO) and result-set types
// exchanged between edge servers and clients, together with their binary
// wire codecs.
//
// A VO proves a query result against the signed digest of the enveloping
// subtree (paper §3.3). Thanks to the multiplicative combiner
// g(x) = x^e mod m, the digest of a node at level L of the subtree is a
// flat product of lifted constituent digests:
//
//	s⁻¹(D_N) = Π g^L(U_T result tuples) · Π g^lift(s⁻¹(d)) for d in D_S
//	           · Π g^(L+1)(s⁻¹(d)) for d in D_P                    (mod m)
//
// where g^k denotes k applications of g, and lift = L − level(entry). The
// VO therefore carries only *sets* of signed digests plus a small lift tag
// per D_S entry — no tree structure — which is the paper's headline
// advantage over root-anchored Merkle schemes. Leaves sit at level 1;
// tuples contribute at lift L and attribute digests at lift L+1.
//
// One practical note the paper leaves implicit: the attribute hash h binds
// the tuple's primary key, so the result set always carries each tuple's
// key, even when the key column itself is projected away (its value digest
// then travels in D_P like any other filtered attribute).
//
// # Wire layout
//
// Formula (9) charges a VO (|D_P| + |D_S| + 1)·D bytes of digests, and
// those are the digest bytes it carries: D_S and D_P travel as fixed-width
// runs behind one width W (see VO.Encode), not each digest behind its own
// length.
//
//	u32 keyVersion | i64 timestamp | u8 topLevel
//	u32 len + TopDigest | u32 len + RootSig
//	u16 W | u32 nDS | nDS × (W bytes, u8 lift) | u32 nDP | nDP × W bytes
//
// A VO is (|D_P| + |D_S|)·W + |D_S| + len(TopDigest) + len(RootSig) + 31
// bytes: 4·(|D_S| + |D_P|) − 2 fewer than when every digest carried a
// 4-byte length.
//
// # The ordered layout
//
// Under a Merkle scheme the tree commits by ordered hashes
// (digest.CommitNode), and a VO carries the envelope from the root down
// instead of lifted D_S sets. Its level byte has the high bit set
// (orderedFlag; levels stay below 128), and the root signature is
// followed by the envelope's node records, in pre-order:
//
//	u16 n | u16 nRuns | nRuns × (u16 start, u16 len)
//
// one per envelope node: its entry count and the positions the answer
// recomputes — the result rows of a leaf, the children holding them of an
// internal node, whose records follow in position order. D_S is then
// nDS digests with no lift: each node's in-node proof (digest.Shape
// AppendSiblings), node by node in the records' order. D_P is unchanged.
// The records are canonical — runs sorted, non-empty and apart, every
// record but the root's naming a position — or DecodeVO refuses them; a
// verifier also refuses a VO whose D_S is not exactly what they call for.
//
// The VO struct holds D_S and D_P in that same shape: VO.DS is the
// nDS × (W bytes, u8 lift) run and VO.DP the nDP × W run, each one []byte,
// with W in VO.Width. NumDS, DSDigest, DSLift, NumDP and DPDigest read
// them; AppendDS and AppendDP build them. A verifier folds a run of
// digests where it lies (digest.Acc.AddRun), and decoding a VO costs one
// allocation whatever it carries — no slice header per digest for the
// collector to scan.
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
	// digests (paper §3.4 key rotation).
	KeyVersion uint32
	// Width is W, the one width of every D_S and D_P digest: the
	// accumulator's digest length under a Merkle scheme, the key length
	// under per-node rsa. It means nothing while both runs are empty. It
	// travels as a u16, and is held as one, so that a decoded VO stays one
	// 128-byte allocation.
	Width uint16
	// TopLevel is the level L of the enveloping subtree's top node
	// (leaf = 1).
	TopLevel uint8
	// TopDigest is D_N, the digest of the enveloping subtree's top node:
	// a signed digest under the legacy RSA-full scheme, the raw unsigned
	// root digest under a Merkle scheme (where RootSig carries the
	// signature over it).
	TopDigest sig.Signature
	// RootSig, under a Merkle scheme, is the central's signature over the
	// raw root digest in TopDigest. Empty under the legacy scheme. The
	// client decides which shape to expect from its TRUSTED registry
	// key's scheme, never from the VO itself.
	RootSig sig.Signature
	// DS is the D_S set — digests of filtered tuples and non-overlapping
	// branches, signed under the legacy scheme, raw under Merkle — as it
	// travels: NumDS() entries of Width digest bytes, each followed by
	// its lift, how many times the verifier applies g before multiplying
	// the digest in (L for filtered tuples in boundary leaves, L − level
	// for filtered branches). In the ordered layout an entry is the
	// digest alone.
	DS []byte
	// DP is the D_P set — digests of the attributes filtered out by
	// projection — as it travels: NumDP() digests of Width bytes.
	DP []byte
	// Nodes is the ordered layout's envelope (see the package comment):
	// empty in a per-node rsa VO, which carries lifts in DS instead.
	Nodes []byte
}

// orderedFlag marks the ordered layout in the level byte on the wire.
const orderedFlag = 0x80

// Ordered reports whether the VO has the ordered layout: node records,
// and D_S digests with no lift.
func (v *VO) Ordered() bool { return len(v.Nodes) > 0 }

// DSStride is the bytes one D_S entry takes: its digest, and its lift
// unless the layout is ordered.
func (v *VO) DSStride() int {
	if v.Ordered() {
		return int(v.Width)
	}
	return int(v.Width) + 1
}

// NumDS returns how many D_S entries the VO carries.
func (v *VO) NumDS() int {
	if v.DSStride() <= 0 {
		return 0
	}
	return len(v.DS) / v.DSStride()
}

// NumDP returns how many D_P digests the VO carries.
func (v *VO) NumDP() int {
	if v.Width == 0 {
		return 0
	}
	return len(v.DP) / int(v.Width)
}

// DSDigest returns the digest of D_S entry i, a view of the run: writing
// to it rewrites the entry.
func (v *VO) DSDigest(i int) sig.Signature {
	at := i * v.DSStride()
	w := int(v.Width)
	return sig.Signature(v.DS[at : at+w : at+w])
}

// DSLift returns the lift of D_S entry i of a per-node rsa VO.
func (v *VO) DSLift(i int) uint8 { return v.DS[(i+1)*v.DSStride()-1] }

// SetDSLift rewrites the lift of D_S entry i of a per-node rsa VO.
func (v *VO) SetDSLift(i int, lift uint8) { v.DS[(i+1)*v.DSStride()-1] = lift }

// DPDigest returns D_P digest i, a view of the run: writing to it
// rewrites the digest.
func (v *VO) DPDigest(i int) sig.Signature {
	w := int(v.Width)
	at := i * w
	return sig.Signature(v.DP[at : at+w : at+w])
}

// AppendDS appends a D_S entry; the ordered layout has no lift to keep.
func (v *VO) AppendDS(digest []byte, lift uint8) {
	v.fitWidth(digest)
	v.DS = append(v.DS, digest...)
	if !v.Ordered() {
		v.DS = append(v.DS, lift)
	}
}

// AppendDP appends a D_P digest.
func (v *VO) AppendDP(digest []byte) {
	v.fitWidth(digest)
	v.DP = append(v.DP, digest...)
}

// fitWidth makes d's length the VO's width if d is its first digest, and
// panics if it is not and d is of another width: the runs have one width,
// so a VO cannot hold such a digest at all. A first digest wider than the
// u16 leaves the width 0, which CheckRuns refuses.
func (v *VO) fitWidth(d []byte) {
	switch {
	case len(v.DS) == 0 && len(v.DP) == 0:
		v.Width = 0
		if len(d) <= 0xFFFF {
			v.Width = uint16(len(d))
		}
	case len(d) != int(v.Width):
		panic(fmt.Sprintf("vo: a %d-byte digest in a VO of %d-byte digests", len(d), v.Width))
	}
}

// CheckRuns reports whether DS and DP are whole runs of one non-zero
// width that fits the u16 carrying it on the wire — always so for a
// decoded VO and for one built by AppendDS and AppendDP.
func (v *VO) CheckRuns() error {
	if len(v.DS) == 0 && len(v.DP) == 0 {
		return nil
	}
	if w := int(v.Width); w < 1 || len(v.DS)%v.DSStride() != 0 || len(v.DP)%w != 0 {
		return fmt.Errorf("vo: %d bytes of D_S and %d of D_P are not runs of %d-byte digests", len(v.DS), len(v.DP), w)
	}
	return nil
}

// NumDigests returns the total signed digests carried (the paper's VO size
// accounting unit).
func (v *VO) NumDigests() int { return 1 + v.NumDS() + v.NumDP() }

// voFixedSize is what a VO takes up beside its digests, lifts, node
// records and root signature: key version, timestamp, top level, the
// lengths of the top digest and the root signature, the digest width and
// the two counts.
const voFixedSize = 4 + 8 + 1 + 4 + 4 + 2 + 4 + 4

// WireSize returns the exact encoded size in bytes: formula (9)'s
// (|D_P| + |D_S| + 1)·D plus a lift per D_S entry (or, ordered, the node
// records), the root signature and voFixedSize.
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

// widthFits reports whether w can be the digest width of a VO holding
// the given number of D_S and D_P entries: it fits the u16 that carries
// it, and is 0 exactly when there is no entry.
func widthFits(w, entries int) bool { return w <= 0xFFFF && (w == 0) == (entries == 0) }

// appendHead appends the VO wire form up to and including the D_S count:
// everything in front of the first digest.
func (v *VO) appendHead(dst []byte, width, nDS int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, v.KeyVersion)
	dst = binary.BigEndian.AppendUint64(dst, uint64(v.Timestamp))
	if v.Ordered() {
		dst = append(dst, v.TopLevel|orderedFlag)
	} else {
		dst = append(dst, v.TopLevel)
	}
	dst = appendSig(dst, v.TopDigest)
	dst = appendSig(dst, v.RootSig)
	dst = append(dst, v.Nodes...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(width))
	return binary.BigEndian.AppendUint32(dst, uint32(nDS))
}

// Encode appends the VO wire form (the package comment has the layout):
// the two runs as they are, behind their width and counts — 0 and two
// empty runs when the VO holds no D_S or D_P digest. The top digest and
// the root signature keep their own lengths. A VO whose runs fail
// CheckRuns has no wire form, and Encode panics on it: the schemes
// produce none, and writing one anyway would hand the peer digests cut
// at the wrong places.
func (v *VO) Encode(dst []byte) []byte {
	if err := v.CheckRuns(); err != nil {
		panic(err.Error())
	}
	w := int(v.Width)
	if len(v.DS) == 0 && len(v.DP) == 0 {
		w = 0
	}
	dst = v.appendHead(dst, w, v.NumDS())
	dst = append(dst, v.DS...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(v.NumDP()))
	return append(dst, v.DP...)
}

// Shortest encodings of the repeated parts that carry their own length,
// by which the decoders bound a claimed count before allocating for it: a
// stored attribute signature is a length; a result row a key datum and a
// value count. (A VO's D_S and D_P runs are bounded by their width and
// allocate nothing.)
const (
	minStoredSig = 4
	minRow       = schema.MinDatumSize + 2
)

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
	*v = VO{
		KeyVersion: binary.BigEndian.Uint32(data[0:4]),
		Timestamp:  int64(binary.BigEndian.Uint64(data[4:12])),
		TopLevel:   data[12] &^ orderedFlag,
	}
	ordered := data[12]&orderedFlag != 0
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
	if ordered {
		n, _, err := walkNodes(data[off:], int(v.TopLevel), true)
		if err != nil {
			return 0, err
		}
		v.Nodes = data[off : off+n : off+n]
		off += n
	}
	if len(data[off:]) < 2+4 {
		return 0, errors.New("vo: truncated digest width and DS count")
	}
	w := int(binary.BigEndian.Uint16(data[off : off+2]))
	dsCount := int(binary.BigEndian.Uint32(data[off+2 : off+6]))
	off += 6
	// Each count is checked against the bytes left before it sizes a run.
	// At width 0 nothing would bound a count, and none is allowed: the
	// width is 0 exactly when both runs are empty.
	run := func(count, entrySize int) ([]byte, bool) {
		if count < 0 || count > 0 && (w == 0 || count > len(data[off:])/entrySize) {
			return nil, false
		}
		end := off + count*entrySize
		r := data[off:end:end]
		off = end
		return r, true
	}
	stride := w + 1
	if ordered {
		stride = w
	}
	var ok bool
	if v.DS, ok = run(dsCount, stride); !ok {
		return 0, errors.New("vo: implausible DS count")
	}
	if len(data[off:]) < 4 {
		return 0, errors.New("vo: truncated DP count")
	}
	dpCount := int(binary.BigEndian.Uint32(data[off : off+4]))
	off += 4
	if v.DP, ok = run(dpCount, w); !ok {
		return 0, errors.New("vo: implausible DP count")
	}
	if !widthFits(w, dsCount+dpCount) {
		return 0, fmt.Errorf("vo: digest width %d with no digests", w)
	}
	v.Width = uint16(w)
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
