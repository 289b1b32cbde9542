package verify

import (
	"errors"
	"testing"

	"edgeauth/internal/digest"
	"edgeauth/internal/schema"
	"edgeauth/internal/shardmap"
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
