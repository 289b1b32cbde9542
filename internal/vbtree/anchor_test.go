package vbtree

import (
	"bytes"
	"testing"
)

// TestAnchorRootPinsEnvelope proves the property sharded verification
// rests on: a VO proves its answer from the root, so its top digest is
// the root digest — Tree.RootDigest, what a signed shard map pins — and
// its root signature is over that digest, even for a narrow query deep
// in a multi-level tree. Query.AnchorRoot asks for exactly that, and
// changes no byte of the answer.
func TestAnchorRootPinsEnvelope(t *testing.T) {
	h := newHarness(t, 300, 1024)
	height := h.tree.Height()
	if height < 2 {
		t.Fatalf("need a multi-level tree, height = %d", height)
	}
	rd := h.tree.RootDigest()

	narrow := Query{Lo: i64(42), Hi: i64(43)}
	rs, w := h.query(t, narrow)
	narrow.AnchorRoot = true
	rsA, wA := h.query(t, narrow)
	if len(rsA.Tuples) != 2 {
		t.Fatalf("anchored query got %d tuples, want 2", len(rsA.Tuples))
	}
	if int(wA.TopLevel) != height {
		t.Fatalf("anchored TopLevel = %d, want tree height %d", wA.TopLevel, height)
	}
	if !bytes.Equal(wA.TopDigest, rd) {
		t.Fatal("anchored TopDigest is not Tree.RootDigest")
	}
	if err := h.key.Public().Verify(wA.RootSig, wA.TopDigest); err != nil {
		t.Fatalf("root signature does not cover the top digest: %v", err)
	}
	w.Timestamp = wA.Timestamp
	if !bytes.Equal(rs.Encode(nil), rsA.Encode(nil)) || !bytes.Equal(w.Encode(nil), wA.Encode(nil)) {
		t.Fatal("AnchorRoot changed the answer")
	}
	// The anchored VO verifies with the standard verifier.
	h.mustVerify(t, rsA, wA)

	// An anchored empty result also verifies (the whole tree proves the
	// range holds nothing).
	empty := Query{Lo: i64(100_000), Hi: i64(100_010), AnchorRoot: true}
	rsE, wE := h.query(t, empty)
	if len(rsE.Tuples) != 0 {
		t.Fatalf("expected empty result, got %d tuples", len(rsE.Tuples))
	}
	if int(wE.TopLevel) != height || !bytes.Equal(wE.TopDigest, rd) {
		t.Fatalf("empty anchored TopLevel = %d, want %d, at the root digest", wE.TopLevel, height)
	}
	h.mustVerify(t, rsE, wE)
}
