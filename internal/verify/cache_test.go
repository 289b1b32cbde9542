package verify

import (
	"errors"
	"testing"
	"time"

	"edgeauth/internal/digest"
	"edgeauth/internal/shardmap"
	"edgeauth/internal/sig"
	"edgeauth/internal/vo"
)

// versioned returns a copy of k with the given key version.
func versioned(k *sig.PrivateKey, version uint32) *sig.PrivateKey {
	c := *k
	c.SetValidity(version, 0, 0)
	return &c
}

// TestSigCacheIsKeyedByKeyVersion: the key version a VO names is not
// signed, so a proof cached under version 1 must not answer for the same
// signature bytes presented under version 2. An edge that relabels an old
// answer to the rotated-to version (keeping the old root signature) has
// to fail the real check under the new key.
func TestSigCacheIsKeyedByKeyVersion(t *testing.T) {
	h := buildHand(t, []string{"a", "b", "c", "d"})
	oldKey := versioned(h.key, 1)
	newKey := versioned(sig.MustGenerate(sig.SchemeRSAMerkle, 512), 2)
	keys := sig.NewRegistry()
	keys.Put(oldKey.Public())
	keys.Put(newKey.Public())
	v := &Verifier{Keys: keys, Acc: h.acc, Schema: h.sch}

	// The ordered commitment of the one-leaf tree: rows 0 and 2 are
	// recomputed, the tuple digests of 1 and 3 travel in D_S.
	root := h.node(1, h.uT...)
	rs := h.rows(0, 2)
	w := &vo.VO{
		KeyVersion: 1,
		Timestamp:  time.Now().Unix(),
		TopLevel:   1,
		TopDigest:  sig.Signature(root),
		RootSig:    oldKey.MustSign(root),
		// 4 entries, 2 runs: [0, +1) and [2, +1).
		Nodes: []byte{0, 4, 0, 2, 0, 0, 0, 1, 0, 2, 0, 1},
	}
	w.AppendDS(h.uT[1])
	w.AppendDS(h.uT[3])
	for i := 0; i < 2; i++ {
		if err := v.Verify(rs, w); err != nil {
			t.Fatalf("authentic answer under version 1: %v", err)
		}
	}
	if cs := v.CacheStats(); cs.Hits != 1 || cs.Misses != 1 {
		t.Fatalf("two verifications of one root signature: %+v, want one miss then one hit", cs)
	}

	w.KeyVersion = 2 // the relabel: old signature, new label
	err := v.Verify(rs, w)
	if !errors.Is(err, ErrBadSignature) {
		t.Fatalf("old root signature relabelled to the new key version: %v, want ErrBadSignature", err)
	}
	if cs := v.CacheStats(); cs.Hits != 1 || cs.Misses != 2 {
		t.Fatalf("the relabelled lookup did not miss the cache: %+v", cs)
	}
}

// TestShardMapSignatureGoesThroughTheCache: the map attached to every
// answer is byte-identical until the next refresh, so its signature costs
// one public-key operation per map, not per answer — while every other
// check VerifyShardMap makes still runs each time, and the cached proof
// vouches for exactly the payload it was made over.
func TestShardMapSignatureGoesThroughTheCache(t *testing.T) {
	acc := digest.MustNew(digest.DefaultParams())
	var ops digest.Counters
	pub := signer(t).Public()
	pub.Counters = &ops
	v := &Verifier{Key: pub, Acc: acc, Schema: testSchema()}
	sm := signedMap(t, twoShardMap(acc))
	for i := 0; i < 5; i++ {
		if err := v.VerifyShardMap(sm, "t"); err != nil {
			t.Fatal(err)
		}
	}
	if n := ops.RecoverOps.Load(); n != 1 {
		t.Fatalf("5 verifications of one map cost %d signature recoveries, want 1", n)
	}

	// Checks that do not involve the signature still run on a cache hit.
	if err := v.VerifyShardMap(sm, "other"); !errors.Is(err, ErrMalformed) {
		t.Fatalf("cached map under the wrong table name: %v, want ErrMalformed", err)
	}
	pub.NotAfter = 1 // the key expires (in 1970) after the proof was cached
	if err := v.VerifyShardMap(sm, "t"); !errors.Is(err, ErrKeyVersion) {
		t.Fatalf("cached map under an expired key: %v, want ErrKeyVersion", err)
	}
	pub.NotAfter = 0

	// The cached signature over a different payload: the real check runs
	// and fails.
	forged := *sm.Map
	forged.MapVersion++
	if err := v.VerifyShardMap(&shardmap.Signed{Map: &forged, Sig: sm.Sig}, "t"); !errors.Is(err, ErrVerification) {
		t.Fatalf("cached signature over an altered map: %v, want ErrVerification", err)
	}
	if n := ops.RecoverOps.Load(); n != 2 {
		t.Fatalf("%d signature recoveries after the forgery, want 2", n)
	}

	// A refreshed map is a new signature: one more recovery, then cached.
	next := *sm.Map
	next.MapVersion++
	fresh := signedMap(t, &next)
	for i := 0; i < 3; i++ {
		if err := v.VerifyShardMap(fresh, "t"); err != nil {
			t.Fatal(err)
		}
	}
	if n := ops.RecoverOps.Load(); n != 3 {
		t.Fatalf("%d signature recoveries after a refreshed map, want 3", n)
	}
}
