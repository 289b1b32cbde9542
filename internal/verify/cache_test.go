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

// versioned returns a fresh key stamped with the given key version.
func versioned(t *testing.T, version uint32) *sig.PrivateKey {
	t.Helper()
	k := sig.MustGenerate(sig.SchemeRSAMerkle, 512)
	k.SetValidity(version, 0, 0)
	return k
}

// TestSigCacheIsKeyedByKeyVersion: the key version a VO names is not
// signed, so a proof cached under version 1 must not answer for the same
// signature bytes presented under version 2. An edge that relabels an old
// answer to the rotated-to version (keeping the old root signature) has
// to fail the real check under the new key.
func TestSigCacheIsKeyedByKeyVersion(t *testing.T) {
	h := buildHand(t, []string{"a", "b", "c", "d"})
	oldKey := versioned(t, 1)
	newKey := versioned(t, 2)
	keys := sig.NewRegistry()
	keys.Put(oldKey.Public())
	keys.Put(newKey.Public())
	v := &Verifier{Keys: keys, Acc: h.acc, Schema: h.sch}

	// The ordered commitment of the one-leaf tree: rows 1 and 2 are
	// recomputed; t0's tuple digest and the digest of the group holding
	// only t3 travel in D_S.
	root := h.node(1, h.uT...)
	rs := h.rows(1, 2)
	w := &vo.VO{
		KeyVersion: 1,
		Timestamp:  time.Now().Unix(),
		TopLevel:   1,
		TopDigest:  sig.Signature(root),
		RootSig:    oldKey.MustSign(root),
		// 4 entries, 1 run: [1, +2).
		Nodes: []byte{0, 4, 0, 1, 0, 1, 0, 2},
	}
	w.AppendDS(h.uT[0])
	w.AppendDS(group(h.uT[3]))
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

// TestCacheHitProvesThePayload: the ledger counts a hit only for a proof
// of the very payload asked about. The same signature bytes presented
// over another payload run the real check, which fails — a miss, not a
// hit followed by a public-key operation anyway.
func TestCacheHitProvesThePayload(t *testing.T) {
	key := signer(t)
	pub := key.Public()
	v := &Verifier{Key: pub}
	payload := []byte("a shard root the map pins.......")
	s := key.MustSign(payload)
	if err := v.cachedVerifySig(pub, s, payload); err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), payload...)
	flipped[0] ^= 1
	if err := v.cachedVerifySig(pub, s, flipped); err == nil {
		t.Fatal("a signature over one payload accepted over another")
	}
	if cs := v.CacheStats(); cs != (CacheStats{Hits: 0, Misses: 2}) {
		t.Fatalf("cache ledger %+v, want {Hits:0 Misses:2}", cs)
	}
	if err := v.cachedVerifySig(pub, s, payload); err != nil {
		t.Fatal(err)
	}
	if cs := v.CacheStats(); cs != (CacheStats{Hits: 1, Misses: 2}) {
		t.Fatalf("cache ledger %+v after the proven payload again, want {Hits:1 Misses:2}", cs)
	}
}

// TestVerifySignedResolvesTheKeyAtTheClock: a detached signature names
// its key by version, and VerifySigned resolves that version in the
// registry at the verifier's own clock before it checks anything —
// an unknown version or a closed validity window is ErrKeyVersion, a
// signature that does not check is ErrBadSignature, and a proven
// binding is answered from the cache.
func TestVerifySignedResolvesTheKeyAtTheClock(t *testing.T) {
	key := versioned(t, 7)
	keys := sig.NewRegistry()
	keys.Put(key.Public())
	now := int64(1_000)
	v := &Verifier{Keys: keys, Now: func() int64 { return now }}
	payload := []byte("the hash of a delta body........")
	s := key.MustSign(payload)

	for i := 0; i < 2; i++ {
		if err := v.VerifySigned(7, s, payload); err != nil {
			t.Fatalf("authentic signature: %v", err)
		}
	}
	if cs := v.CacheStats(); cs != (CacheStats{Hits: 1, Misses: 1}) {
		t.Fatalf("two checks of one binding: %+v, want one miss then one hit", cs)
	}
	if err := v.VerifySigned(6, s, payload); !errors.Is(err, ErrKeyVersion) {
		t.Fatalf("unknown key version: %v, want ErrKeyVersion", err)
	}
	bad := append(sig.Signature(nil), s...)
	bad[len(bad)-1] ^= 1
	if err := v.VerifySigned(7, bad, payload); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("flipped signature: %v, want ErrBadSignature", err)
	}

	// The window closes: the cached proof does not outlive the key.
	key.SetValidity(7, 0, now-1)
	keys.Put(key.Public())
	if err := v.VerifySigned(7, s, payload); !errors.Is(err, ErrKeyVersion) {
		t.Fatalf("expired key: %v, want ErrKeyVersion", err)
	}
}

// TestCacheStatsBesideVerification: an edge reports its verifier's ledger
// from Stats while refreshes verify on other goroutines, so reading the
// ledger must not race the cache's lazy creation.
func TestCacheStatsBesideVerification(t *testing.T) {
	key := signer(t)
	pub := key.Public()
	v := &Verifier{Key: pub}
	payload := []byte("a shard root the map pins.......")
	s := key.MustSign(payload)
	done := make(chan error, 1)
	go func() { done <- v.cachedVerifySig(pub, s, payload) }()
	for i := 0; i < 100; i++ {
		v.CacheStats()
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if cs := v.CacheStats(); cs != (CacheStats{Misses: 1}) {
		t.Fatalf("cache ledger %+v, want one miss", cs)
	}
}
