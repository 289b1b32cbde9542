package verify

import (
	"bytes"
	"errors"
	"testing"

	"edgeauth/internal/digest"
	"edgeauth/internal/israce"
	"edgeauth/internal/schema"
	"edgeauth/internal/shardmap"
	"edgeauth/internal/sig"
)

// signedMap signs m with the test key WITHOUT shardmap.Sign's validation,
// so tests can present the verifier with correctly signed maps the
// central would never mint.
func signedMap(t *testing.T, m *shardmap.Map) *shardmap.Signed {
	t.Helper()
	sg, err := signer(t).Sign(m.SigPayload())
	if err != nil {
		t.Fatal(err)
	}
	return &shardmap.Signed{Map: m, Sig: sg}
}

func twoShardMap(acc *digest.Accumulator) *shardmap.Map {
	return &shardmap.Map{
		Table:       "t",
		Epoch:       7,
		MapVersion:  3,
		MapEpoch:    2,
		ParentEpoch: 1,
		Boundaries:  []schema.Datum{schema.Int64(100)},
		Shards: []shardmap.ShardState{
			{RootDigest: make([]byte, acc.Len()), ID: 1},
			{RootDigest: make([]byte, acc.Len()), ID: 3},
		},
	}
}

// TestVerifyShardMapRequiresEpochAndIDs: a map without a partition
// generation, or with an ID-less shard, is rejected even when the central
// key really signed it — the generation ratchet and the by-ID store
// carry-over have no exempt shape.
func TestVerifyShardMapRequiresEpochAndIDs(t *testing.T) {
	acc := digest.MustNew(digest.DefaultParams())
	v := &Verifier{Key: signer(t).Public(), Acc: acc, Schema: testSchema()}
	if err := v.VerifyShardMap(signedMap(t, twoShardMap(acc)), "t"); err != nil {
		t.Fatalf("well-formed signed map rejected: %v", err)
	}
	for name, mutate := range map[string]func(*shardmap.Map){
		"map epoch 0": func(m *shardmap.Map) {
			m.MapEpoch, m.ParentEpoch = 0, 0
			m.Shards[0].ID, m.Shards[1].ID = 0, 0
		},
		"zero shard ID": func(m *shardmap.Map) { m.Shards[1].ID = 0 },
	} {
		m := twoShardMap(acc)
		mutate(m)
		sm := signedMap(t, m)
		if err := sm.Verify(signer(t).Public()); err != nil {
			t.Fatalf("%s: test map is not correctly signed: %v", name, err)
		}
		if err := v.VerifyShardMap(sm, "t"); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: VerifyShardMap = %v, want ErrMalformed", name, err)
		}
	}
}

// TestCheckMapSuccessionHasNoBypass: within one table incarnation any
// generation below the high-water mark is a replay — including
// generation 0, which used to be exempt.
func TestCheckMapSuccessionHasNoBypass(t *testing.T) {
	m := &shardmap.Map{Epoch: 7, MapEpoch: 3}
	if err := CheckMapSuccession(7, 3, m); err != nil {
		t.Fatalf("same generation: %v", err)
	}
	if err := CheckMapSuccession(7, 2, m); err != nil {
		t.Fatalf("newer generation: %v", err)
	}
	if err := CheckMapSuccession(7, 4, m); !errors.Is(err, ErrMapReplay) {
		t.Fatalf("older generation: %v, want ErrMapReplay", err)
	}
	if err := CheckMapSuccession(7, 4, &shardmap.Map{Epoch: 7}); !errors.Is(err, ErrMapReplay) {
		t.Fatalf("generation 0: %v, want ErrMapReplay", err)
	}
	if err := CheckMapSuccession(8, 4, m); err != nil {
		t.Fatalf("a different incarnation restarts the chain: %v", err)
	}
}

// TestSignedMapCheckedOncePerDistinctBytes: every answer carries the
// signed map, byte-identical until the next refresh, so a hundred answers
// on an unchanged map decode and check it once — each arriving in a frame
// of its own, which the verifier neither keeps nor needs to outlive. With
// the verified-digest cache off, every full check is one signature
// operation; a memo hit is none, and allocates nothing: it decodes
// nothing.
func TestSignedMapCheckedOncePerDistinctBytes(t *testing.T) {
	acc := digest.MustNew(digest.DefaultParams())
	var ops digest.Counters
	pub := signer(t).Public()
	pub.Counters = &ops
	v := &Verifier{Key: pub, Acc: acc, Schema: testSchema(), CacheSize: -1}
	raw := signedMap(t, twoShardMap(acc)).Encode()

	var first *shardmap.Signed
	for i := 0; i < 100; i++ {
		frame := bytes.Clone(raw)
		sm, err := v.VerifySignedMap(frame, "t")
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = sm
		}
		clear(frame) // the frame is reused for the next message
		if sm != first || sm.Map.MapVersion != 3 {
			t.Fatalf("answer %d: the map was checked again, or read from its frame", i)
		}
	}
	if n := ops.RecoverOps.Load(); n != 1 {
		t.Fatalf("100 answers on one map: %d full checks, want 1", n)
	}
	if !israce.Enabled {
		if n := testing.AllocsPerRun(100, func() { _, _ = v.VerifySignedMap(raw, "t") }); n != 0 {
			t.Fatalf("a memo hit allocates %v times, want 0", n)
		}
	}

	// The memo is the last map checked: a refresh is checked once, and
	// going back is another map again.
	next := twoShardMap(acc)
	next.MapVersion++
	for _, b := range [][]byte{signedMap(t, next).Encode(), raw} {
		for i := 0; i < 3; i++ {
			if _, err := v.VerifySignedMap(b, "t"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := ops.RecoverOps.Load(); n != 3 {
		t.Fatalf("two map changes: %d full checks in all, want 3", n)
	}
}

// TestSignedMapMemoFailsClosed: what a memoised map is reused for is its
// bytes' outcome, never the clock's or the key's. The same bytes after
// the key's window closes are refused; the same bytes under a key
// version the registry now binds to another key, one flipped byte, or
// another table are checked in full — and fail. (The verified-digest
// cache is on: it must not vouch for a signature under another key
// either.)
func TestSignedMapMemoFailsClosed(t *testing.T) {
	acc := digest.MustNew(digest.DefaultParams())
	var ops digest.Counters
	key := signer(t).Public()
	key.NotAfter = 2_000_000_000
	key.Counters = &ops
	keys := sig.NewRegistry()
	keys.Put(key)
	now := int64(1_900_000_000)
	v := &Verifier{Keys: keys, Acc: acc, Schema: testSchema(), Now: func() int64 { return now }}
	raw := signedMap(t, twoShardMap(acc)).Encode()
	memo, err := v.VerifySignedMap(raw, "t")
	if err != nil {
		t.Fatal(err)
	}
	hit := func(what string) {
		t.Helper()
		if sm, err := v.VerifySignedMap(raw, "t"); err != nil || sm != memo {
			t.Fatalf("%s: %v (memo hit %v)", what, err, sm == memo)
		}
	}

	now = key.NotAfter + 1
	if _, err := v.VerifySignedMap(raw, "t"); !errors.Is(err, ErrKeyVersion) {
		t.Fatalf("the same map after its key expired: %v, want ErrKeyVersion", err)
	}
	now = 1_900_000_000
	hit("the same map back inside the window")

	flipped := bytes.Clone(raw)
	flipped[len(flipped)-1] ^= 1 // the last byte of the signature
	if _, err := v.VerifySignedMap(flipped, "t"); !errors.Is(err, ErrVerification) || ops.RecoverOps.Load() != 2 {
		t.Fatalf("one flipped byte: %v after %d signature checks, want the full check to refuse it", err, ops.RecoverOps.Load())
	}
	if _, err := v.VerifySignedMap(raw, "other"); !errors.Is(err, ErrMalformed) {
		t.Fatalf("the same bytes for another table: %v, want the full check to refuse them", err)
	}
	hit("the honest map after refused ones")

	other := sig.MustGenerate(sig.SchemeRSAMerkle, 512).Public()
	other.Version = key.Version
	keys.Put(other)
	if _, err := v.VerifySignedMap(raw, "t"); !errors.Is(err, ErrVerification) {
		t.Fatalf("the map's key version bound to another key: %v, want the full check to refuse it", err)
	}
}
