package verify

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"strings"
	"testing"

	"edgeauth/internal/schema"
	"edgeauth/internal/vo"
)

// TestShapeIsJudgedByTheWalk: anchor does not pre-check the shape of what
// the walk reads. Each input below was once refused by a check of its own
// in anchor; it is refused as before, with the same sentinel, by the
// check named beside it.
func TestShapeIsJudgedByTheWalk(t *testing.T) {
	b := buildTree(t, 300, 1024, nil)
	rs, w := b.query(t, 20, 40, []string{"id", "cat"})
	if err := b.ver.Verify(rs, w); err != nil {
		t.Fatal(err)
	}
	if w.TopLevel < 2 || w.NumDP() == 0 {
		t.Fatalf("the answer is %d levels deep with %d D_P digests; the cases below want an internal node and a projection", w.TopLevel, w.NumDP())
	}
	dig := w.DPDigest(0)
	other := sha256.Sum256([]byte("a payload the central signs that is no root"))
	for _, tc := range []struct {
		name   string
		change func(w *vo.VO)
		want   error
		says   string // what the refusing check reports
	}{
		// Envelope: a top level below 1 has no node record.
		{"top level 0", func(w *vo.VO) { w.TopLevel = 0 }, ErrMalformed, "node record at level 0"},
		// The walk reads whole digests; what is left over is unused.
		{"D_S not whole digests", func(w *vo.VO) { w.DS = append(bytes.Clone(w.DS), 0) }, ErrMalformed, "leaves part of the answer unused"},
		{"D_P not whole digests", func(w *vo.VO) { w.DP = append(bytes.Clone(w.DP), 0) }, ErrMalformed, "leaves part of the answer unused"},
		// Each row takes its column proof from D_P in turn.
		{"D_P one digest short", func(w *vo.VO) { w.DP = w.DP[:len(w.DP)-len(dig)] }, ErrMalformed, "D_P ends inside row"},
		{"D_P one digest over", func(w *vo.VO) { w.DP = append(bytes.Clone(w.DP), dig...) }, ErrMalformed, "leaves part of the answer unused"},
		// The root signature is over the top digest as it arrives.
		{"top digest a byte long", func(w *vo.VO) { w.TopDigest = append(bytes.Clone(w.TopDigest), 0) }, ErrBadSignature, "invalid signature"},
		{"top digest a byte short", func(w *vo.VO) { w.TopDigest = w.TopDigest[:len(w.TopDigest)-1] }, ErrBadSignature, "invalid signature"},
		{"no root signature", func(w *vo.VO) { w.RootSig = nil }, ErrBadSignature, "invalid signature"},
		// A genuine signature over a payload of another length passes the
		// signature check; the recomputed root is not that payload.
		{"top digest another signed payload", func(w *vo.VO) {
			w.TopDigest, w.RootSig = other[:], signer(t).MustSign(other[:])
		}, ErrVerification, "digest mismatch"},
	} {
		bad := *w
		tc.change(&bad)
		err := b.ver.Verify(rs, &bad)
		if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.says) {
			t.Errorf("%s: %v, want %v saying %q", tc.name, err, tc.want, tc.says)
			continue
		}
		// The sentinel is named once, not once per tree level the
		// refusal passes through.
		if n := strings.Count(err.Error(), tc.want.Error()); n != 1 {
			t.Errorf("%s: %q names %v %d times", tc.name, err, tc.want, n)
		}
	}
}

// TestDuplicateColumnIsRefused: only the last copy of a result column is
// hashed, so an answer naming a column twice could carry anything in the
// first copy. It is refused, not accepted with a forged value.
func TestDuplicateColumnIsRefused(t *testing.T) {
	b := buildTree(t, 300, 1024, nil)
	rs, w := b.query(t, 20, 22, []string{"id", "cat"})
	if err := b.ver.Verify(rs, w); err != nil {
		t.Fatal(err)
	}
	rs.Columns = []string{"id", "cat", "cat"}
	for j := range rs.Tuples {
		v := rs.Tuples[j].Values
		rs.Tuples[j].Values = []schema.Datum{v[0], schema.Str("FORGED"), v[1]}
	}
	if err := b.ver.Verify(rs, w); !errors.Is(err, ErrMalformed) {
		t.Fatalf("columns %v with a forged first copy: %v, want ErrMalformed", rs.Columns, err)
	}
}

// TestResultIdentityIsChecked: an answer recomputes under the database
// and table it names, so an honest answer from another table of the same
// key recomputes that table's signed root. The verifier of one table
// refuses it.
func TestResultIdentityIsChecked(t *testing.T) {
	b := buildTree(t, 300, 1024, nil)
	rs, w := b.query(t, 20, 22, nil)
	for _, rename := range []func(s *schema.Schema){
		func(s *schema.Schema) { s.Table += "_other" },
		func(s *schema.Schema) { s.DB += "_other" },
	} {
		other := *b.sch
		rename(&other)
		v := &Verifier{Keys: b.ver.Keys, Acc: b.ver.Acc, Schema: &other}
		if err := v.Verify(rs, w); !errors.Is(err, ErrMalformed) {
			t.Fatalf("an answer from %s.%s checked as %s.%s: %v, want ErrMalformed", rs.DB, rs.Table, other.DB, other.Table, err)
		}
	}
}
