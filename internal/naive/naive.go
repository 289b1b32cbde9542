// Package naive implements the baseline authentication strategy of the
// paper's Appendix (Figure 14): the central server maintains a signed
// digest for every attribute and a signed digest for every tuple; an edge
// server answers a query by shipping, alongside each result tuple, its
// signed tuple digest plus the signed digests of every projected-out
// attribute. The client then verifies each tuple independently:
//
//	s⁻¹(D_T) = Π g(d_a)   over all attributes a of the tuple,
//
// computing d_a with the one-way hash for returned values and recovering
// it from the shipped signature for filtered ones.
//
// Compared to the VB-tree, Naive needs one signature *recovery per result
// tuple* (the dominating cost of Figure 12) and ships one signed digest per
// result tuple (the transmission gap of Figures 10–11). It also provides
// no defense against spurious tuples — any properly signed tuple from the
// table passes — which is part of what the VB-tree's enveloping subtree
// adds.
package naive

import (
	"errors"
	"fmt"
	"sort"

	"edgeauth/internal/digest"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/vo"
)

// Store is the edge-side replica for the Naive scheme: tuples with their
// per-attribute signatures and per-tuple signatures, ordered by key.
type Store struct {
	sch     *schema.Schema
	acc     *digest.Accumulator
	keys    [][]byte // order-preserving key encodings, ascending
	stored  []storedRow
	tupSigs []sig.Signature
}

// storedRow is a tuple as the naive edge keeps it, in memory: its values
// and the signed formula-(1) digest of every attribute, in schema column
// order, which a projection ships for the attributes it leaves out.
type storedRow struct {
	Tuple    schema.Tuple
	AttrSigs []sig.Signature
}

// BuildStore signs every attribute and tuple digest with the central
// server's key, mirroring what the paper's naive central server maintains.
func BuildStore(sch *schema.Schema, acc *digest.Accumulator, signer *sig.PrivateKey, tuples []schema.Tuple) (*Store, error) {
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	if acc == nil || signer == nil {
		return nil, errors.New("naive: accumulator and signer required")
	}
	s := &Store{sch: sch, acc: acc}
	for i, tup := range tuples {
		if len(tup.Values) != len(sch.Columns) {
			return nil, fmt.Errorf("naive: tuple %d has %d values for %d columns", i, len(tup.Values), len(sch.Columns))
		}
		keyBytes := tup.Key(sch).KeyBytes()
		st := storedRow{Tuple: tup, AttrSigs: make([]sig.Signature, len(tup.Values))}
		tAcc := acc.NewAcc()
		for c, val := range tup.Values {
			if val.Type != sch.Columns[c].Type {
				return nil, fmt.Errorf("naive: tuple %d column %q type mismatch", i, sch.Columns[c].Name)
			}
			d := acc.HashAttribute(sch.DB, sch.Table, sch.Columns[c].Name, keyBytes, val.CanonicalBytes())
			as, err := signer.Sign(d)
			if err != nil {
				return nil, err
			}
			st.AttrSigs[c] = as
			if err := tAcc.Add(d); err != nil {
				return nil, err
			}
		}
		ts, err := signer.Sign(tAcc.Value())
		if err != nil {
			return nil, err
		}
		s.keys = append(s.keys, keyBytes)
		s.stored = append(s.stored, st)
		s.tupSigs = append(s.tupSigs, ts)
	}
	for i := 1; i < len(s.keys); i++ {
		if compareBytes(s.keys[i-1], s.keys[i]) >= 0 {
			return nil, fmt.Errorf("naive: tuples not in strictly increasing key order at %d", i)
		}
	}
	return s, nil
}

// Len returns the number of tuples.
func (s *Store) Len() int { return len(s.keys) }

// VO is the Naive verification payload: one signed tuple digest per result
// tuple, plus the signed digests of that tuple's filtered attributes.
type VO struct {
	// KeyVersion of the signing key.
	KeyVersion uint32
	// TupleSigs[i] is D_T of result tuple i.
	TupleSigs []sig.Signature
	// FilteredSigs[i] holds result tuple i's filtered-attribute
	// signatures, ordered by ascending schema column index.
	FilteredSigs [][]sig.Signature
}

// NumDigests counts the signed digests shipped.
func (v *VO) NumDigests() int {
	n := len(v.TupleSigs)
	for _, fs := range v.FilteredSigs {
		n += len(fs)
	}
	return n
}

// WireSize returns the encoded payload size: the byte accounting used for
// the Figure 10/11 comparison. Digests count at their width, behind one
// 2-byte width for the whole VO, as vo.VO.WireSize counts the VB-tree's:
// the two sides of the comparison pay for framing alike.
func (v *VO) WireSize() int {
	sz := 4 + 4 + 2
	for _, s := range v.TupleSigs {
		sz += len(s)
	}
	for _, fs := range v.FilteredSigs {
		sz += 4
		for _, s := range fs {
			sz += len(s)
		}
	}
	return sz
}

// Query mirrors the VB-tree's query shape.
type Query struct {
	Lo, Hi  *schema.Datum
	Filter  func(schema.Tuple) bool
	Project []string
}

// RunQuery answers q with a result set and the Naive VO.
func (s *Store) RunQuery(q Query, keyVersion uint32) (*vo.ResultSet, *VO, error) {
	projIdx, projCols, err := s.resolveProjection(q.Project)
	if err != nil {
		return nil, nil, err
	}
	inProj := make([]bool, len(s.sch.Columns))
	for _, ci := range projIdx {
		inProj[ci] = true
	}

	lo := 0
	if q.Lo != nil {
		lb := q.Lo.KeyBytes()
		lo = sort.Search(len(s.keys), func(i int) bool { return compareBytes(s.keys[i], lb) >= 0 })
	}
	rs := &vo.ResultSet{DB: s.sch.DB, Table: s.sch.Table, Columns: projCols}
	nv := &VO{KeyVersion: keyVersion}
	var hiB []byte
	if q.Hi != nil {
		hiB = q.Hi.KeyBytes()
	}
	for i := lo; i < len(s.keys); i++ {
		if hiB != nil && compareBytes(s.keys[i], hiB) > 0 {
			break
		}
		st := s.stored[i]
		if q.Filter != nil && !q.Filter(st.Tuple) {
			continue
		}
		rs.Keys = append(rs.Keys, st.Tuple.Key(s.sch))
		vals := make([]schema.Datum, len(projIdx))
		for j, ci := range projIdx {
			vals[j] = st.Tuple.Values[ci]
		}
		rs.Tuples = append(rs.Tuples, schema.Tuple{Values: vals})
		nv.TupleSigs = append(nv.TupleSigs, s.tupSigs[i].Clone())
		var fs []sig.Signature
		for ci := range s.sch.Columns {
			if !inProj[ci] {
				fs = append(fs, st.AttrSigs[ci].Clone())
			}
		}
		nv.FilteredSigs = append(nv.FilteredSigs, fs)
	}
	return rs, nv, nil
}

func (s *Store) resolveProjection(cols []string) ([]int, []string, error) {
	if cols == nil {
		idx := make([]int, len(s.sch.Columns))
		names := make([]string, len(s.sch.Columns))
		for i, c := range s.sch.Columns {
			idx[i] = i
			names[i] = c.Name
		}
		return idx, names, nil
	}
	if len(cols) == 0 {
		return nil, nil, errors.New("naive: empty projection")
	}
	idx := make([]int, len(cols))
	seen := make(map[string]bool)
	for i, name := range cols {
		ci := s.sch.ColumnIndex(name)
		if ci < 0 {
			return nil, nil, fmt.Errorf("naive: unknown column %q", name)
		}
		if seen[name] {
			return nil, nil, fmt.Errorf("naive: duplicate column %q", name)
		}
		seen[name] = true
		idx[i] = ci
	}
	return idx, cols, nil
}

// Verify checks a Naive result tuple-by-tuple against the public key.
func Verify(sch *schema.Schema, acc *digest.Accumulator, pub *sig.PublicKey, rs *vo.ResultSet, nv *VO) error {
	if err := rs.Validate(); err != nil {
		return err
	}
	if rs.DB != sch.DB || rs.Table != sch.Table {
		return fmt.Errorf("naive: result identity %s.%s does not match schema", rs.DB, rs.Table)
	}
	if len(nv.TupleSigs) != len(rs.Tuples) || len(nv.FilteredSigs) != len(rs.Tuples) {
		return fmt.Errorf("naive: VO carries %d tuple digests for %d tuples", len(nv.TupleSigs), len(rs.Tuples))
	}
	colIdx := make([]int, len(rs.Columns))
	inProj := make([]bool, len(sch.Columns))
	for i, name := range rs.Columns {
		ci := sch.ColumnIndex(name)
		if ci < 0 {
			return fmt.Errorf("naive: unknown column %q", name)
		}
		colIdx[i] = ci
		inProj[ci] = true
	}
	nFiltered := len(sch.Columns) - len(rs.Columns)
	for j := range rs.Tuples {
		if len(nv.FilteredSigs[j]) != nFiltered {
			return fmt.Errorf("naive: tuple %d ships %d filtered digests, want %d", j, len(nv.FilteredSigs[j]), nFiltered)
		}
		keyBytes := rs.Keys[j].KeyBytes()
		tAcc := acc.NewAcc()
		for i, ci := range colIdx {
			val := rs.Tuples[j].Values[i]
			if val.Type != sch.Columns[ci].Type {
				return fmt.Errorf("naive: tuple %d column %q type mismatch", j, rs.Columns[i])
			}
			d := acc.HashAttribute(sch.DB, sch.Table, sch.Columns[ci].Name, keyBytes, val.CanonicalBytes())
			if err := tAcc.Add(d); err != nil {
				return err
			}
		}
		for _, fs := range nv.FilteredSigs[j] {
			u, err := pub.Recover(fs)
			if err != nil {
				return fmt.Errorf("naive: tuple %d filtered attribute: %w", j, err)
			}
			if len(u) != acc.Len() {
				return fmt.Errorf("naive: tuple %d: recovered digest wrong length", j)
			}
			if err := tAcc.Add(digest.Value(u)); err != nil {
				return err
			}
		}
		ut, err := pub.Recover(nv.TupleSigs[j])
		if err != nil {
			return fmt.Errorf("naive: tuple %d digest: %w", j, err)
		}
		if !digest.Value(ut).Equal(tAcc.Value()) {
			return fmt.Errorf("naive: tuple %d failed verification", j)
		}
	}
	return nil
}

func compareBytes(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}
