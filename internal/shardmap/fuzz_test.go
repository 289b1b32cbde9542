package shardmap

import (
	"bytes"
	"testing"

	"edgeauth/internal/schema"
)

// Fuzz target for the signed-shard-map decoder: the map travels through
// the untrusted edge server to the client, so the decoder must survive
// arbitrary bytes. Invariants: no panics, no unbounded allocation, and
// accepted inputs re-encode byte-identically — the signature covers the
// payload bytes, so a "repairing" decoder would break authentication.

func seedSigned() []byte {
	m := testMap()
	s := &Signed{Map: m, Sig: []byte{9, 9, 9, 9}}
	return s.Encode()
}

func FuzzDecodeSigned(f *testing.F) {
	f.Add(seedSigned())
	one := &Signed{
		Map: &Map{Table: "t", MapEpoch: 1, Shards: []ShardState{{RootDigest: []byte{1}, ID: 1}}},
		Sig: []byte{1},
	}
	f.Add(one.Encode())
	str := &Signed{
		Map: &Map{
			Table:      "s",
			MapEpoch:   1,
			Boundaries: []schema.Datum{schema.Str("m")},
			Shards: []ShardState{
				{RootDigest: []byte{1, 2}, ID: 1},
				{RootDigest: []byte{3, 4}, Version: 8, ID: 2},
			},
		},
		Sig: bytes.Repeat([]byte{7}, 64),
	}
	f.Add(str.Encode())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSigned(data)
		if err != nil {
			return
		}
		if err := s.Map.Validate(); err != nil {
			t.Fatalf("decoder accepted a map Validate rejects: %v", err)
		}
		if !bytes.Equal(s.Encode(), data) {
			t.Fatal("signed map round-trip mismatch")
		}
		// Clone must be deep: mutating the clone leaves the original's
		// encoding unchanged.
		c := s.Clone()
		c.Map.Table += "x"
		if len(c.Map.Shards) > 0 && len(c.Map.Shards[0].RootDigest) > 0 {
			c.Map.Shards[0].RootDigest[0] ^= 0xFF
		}
		if !bytes.Equal(s.Encode(), data) {
			t.Fatal("Clone aliases the original map")
		}
	})
}

// Fuzz target for the epoch-transition checker: ValidateTransition must
// survive any pair of decoded maps. Invariants: no panics, and an
// accepted pair is exactly one shard apart with its generations linked.
// Seeded with a split (testMap -> splitChild) and its reverse.
func FuzzValidateTransition(f *testing.F) {
	parent, child := testMap(), splitChild()
	f.Add(parent.Encode(), child.Encode())
	f.Add(child.Encode(), parent.Encode())
	f.Add(parent.Encode(), parent.Encode())
	f.Add(seedSigned(), seedSigned())
	f.Add([]byte{}, bytes.Repeat([]byte{0xFF}, 40))
	f.Fuzz(func(t *testing.T, pdata, cdata []byte) {
		p, perr := Decode(pdata)
		c, cerr := Decode(cdata)
		if perr != nil || cerr != nil {
			return
		}
		forward := ValidateTransition(p, c)
		if forward == nil {
			// A legal transition is exactly one boundary apart and links
			// the generations; cross-check the core claims the rest of
			// the system relies on.
			if len(c.Shards)-len(p.Shards) != 1 && len(p.Shards)-len(c.Shards) != 1 {
				t.Fatalf("accepted transition with shard delta %d", len(c.Shards)-len(p.Shards))
			}
			if c.MapEpoch != p.MapEpoch+1 || c.ParentEpoch != p.MapEpoch {
				t.Fatalf("accepted broken generation link %d->%d", p.MapEpoch, c.MapEpoch)
			}
		}
	})
}
