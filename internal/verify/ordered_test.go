package verify

import (
	"bytes"
	"errors"
	"testing"

	"edgeauth/internal/digest"
	"edgeauth/internal/vo"
)

// TestOrderedEnvelopeCheckedBeforeHashing: the node records of a Merkle
// VO say how many rows and D_S digests the answer must hold, and that is
// checked before anything is hashed. A VO whose one leaf claims 65,535
// recomputed rows over an answer of a few is refused with no hash spent.
func TestOrderedEnvelopeCheckedBeforeHashing(t *testing.T) {
	var c digest.Counters
	b := buildTree(t, 300, 1024, &c)
	rs, w := b.query(t, 20, 24, nil)
	if err := b.ver.Verify(rs, w); err != nil {
		t.Fatal(err)
	}
	w.TopLevel = 1
	w.Nodes = []byte{0xFF, 0xFF, 0, 1, 0, 0, 0xFF, 0xFF}
	before := c.Snapshot()
	if err := b.ver.Verify(rs, w); !errors.Is(err, ErrMalformed) {
		t.Fatalf("a leaf of 65,535 recomputed rows over %d: %v, want ErrMalformed", len(rs.Tuples), err)
	}
	if spent := c.Snapshot().Sub(before); spent.HashOps != 0 {
		t.Fatalf("refusing the envelope hashed %d times", spent.HashOps)
	}
}

// FuzzVerifyMerkleAnswer: any byte of an honest Merkle answer may be
// changed, inserted or cut. The verifier either rejects what arrives or
// accepts exactly the honest rows — never a changed value, a moved row or
// one too many or too few.
func FuzzVerifyMerkleAnswer(f *testing.F) {
	b := buildTree(f, 300, 1024, nil)
	b.ver.MaxClockSkew = -1
	var honest [][]byte // each seed answer's result set, as it encodes
	for _, q := range []struct {
		lo, hi  int64
		project []string
	}{
		{20, 20, nil},
		{20, 80, []string{"id", "cat"}},
		{150, 149 + 40, []string{"a2"}},
		// Each of the three column groups partly returned: a row's
		// proof is two attribute digests from each.
		{90, 99, []string{"a5", "cat", "a9"}},
		{5000, 6000, nil},
	} {
		rs, w := b.query(f, q.lo, q.hi, q.project)
		if err := b.ver.Verify(rs, w); err != nil {
			f.Fatal(err)
		}
		honest = append(honest, rs.Encode(nil))
		f.Add(vo.AppendAnswer(nil, rs, w))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, w, err := vo.DecodeAnswer(data)
		if err != nil {
			return
		}
		if b.ver.Verify(rs, w) != nil {
			return
		}
		got := rs.Encode(nil)
		for _, h := range honest {
			if bytes.Equal(got, h) {
				return
			}
		}
		t.Fatalf("accepted %d rows that no honest answer holds", len(rs.Tuples))
	})
}
