package verify

import (
	"bytes"
	"errors"
	"fmt"

	"edgeauth/internal/shardmap"
	"edgeauth/internal/sig"
	"edgeauth/internal/vo"
)

// Client-side verification for range-partitioned tables.
//
// A sharded answer is N per-shard (result, VO) pairs stitched under a
// central-signed shard map. Three checks make the stitching sound:
//
//  1. The map itself verifies: central signature over the boundary keys
//     and per-shard root digests, key version resolved at the client's
//     own clock (VerifyShardMap; VerifySignedMap from the map's bytes,
//     checking each distinct bytes once).
//  2. Each per-shard VO verifies AND anchors at exactly the root digest
//     the map pins for that shard (VerifyAnchored). The edge builds
//     shard VOs with the envelope forced to the root, so the recovered
//     top digest IS the shard's root digest — a stale shard answer
//     recovers to an old root and fails the comparison.
//  3. The caller derives the set of qualifying shards from the verified
//     map's boundaries and demands one verified answer per qualifying
//     shard — an edge that "loses" a shard cannot produce the missing
//     answer, and the map signature stops it from hiding the shard's
//     existence. Adjacent boundaries tile the key space by construction
//     (shardmap.Map.Validate rejects unsorted or duplicated bounds), so
//     no key range can fall between shards.

// ErrShardBinding marks a per-shard answer whose VO does not anchor at
// the root digest the verified shard map pins — a stale or cross-wired
// shard answer. It wraps ErrVerification.
var ErrShardBinding = errors.New("verify: shard answer not bound to the shard map")

// ErrMapReplay marks a correctly signed shard map whose partition epoch
// regresses below one the client already verified for the same table
// incarnation — the replay-pre-split attack: an edge serving a
// superseded map to route queries around a shard a split created.
var ErrMapReplay = errors.New("verify: shard map replays a superseded partition epoch")

// CheckMapSuccession enforces the monotone partition-epoch contract
// between the freshest map already verified for a table incarnation
// (prevEpoch/prevMapEpoch) and a newly verified map m: within one
// incarnation the map epoch may only advance, because every online
// split or merge commits a strictly newer generation linked to its
// parent. A signature alone cannot catch this — a pre-split map is
// still correctly signed — so the client's epoch high-water mark is
// part of the trust model. Only a different table incarnation (which
// restarts its own chain) is exempt.
func CheckMapSuccession(prevEpoch, prevMapEpoch uint64, m *shardmap.Map) error {
	if prevEpoch != m.Epoch {
		return nil
	}
	if m.MapEpoch < prevMapEpoch {
		return fmt.Errorf("%w: already verified partition epoch %d, map presents %d",
			ErrMapReplay, prevMapEpoch, m.MapEpoch)
	}
	return nil
}

// VerifyShardMap checks a signed shard map against the trusted keys: the
// signature must recover under the map's key version, resolved and
// validity-checked at the verifier's own clock, and the map must name
// the expected table with digests sized for the accumulator.
func (v *Verifier) VerifyShardMap(sm *shardmap.Signed, table string) error {
	_, err := v.verifyShardMap(sm, table)
	return err
}

// verifyShardMap is VerifyShardMap returning the key the signature was
// checked under.
func (v *Verifier) verifyShardMap(sm *shardmap.Signed, table string) (*sig.PublicKey, error) {
	if v.Acc == nil {
		return nil, errors.New("verify: verifier not configured")
	}
	if sm == nil || sm.Map == nil {
		return nil, fmt.Errorf("%w: missing shard map", ErrMalformed)
	}
	if err := sm.Map.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if sm.Map.Table != table {
		return nil, fmt.Errorf("%w: shard map names table %q, want %q", ErrMalformed, sm.Map.Table, table)
	}
	for i, sh := range sm.Map.Shards {
		if len(sh.RootDigest) != v.Acc.Len() {
			return nil, fmt.Errorf("%w: shard %d root digest has %d bytes, want %d",
				ErrMalformed, i, len(sh.RootDigest), v.Acc.Len())
		}
	}
	pub, err := v.resolveKey(sm.Map.KeyVersion, v.now())
	if err != nil {
		return nil, err
	}
	// The signature goes through the verified-digest cache: one public-key
	// operation per map, not per call. Everything above still runs on
	// every call.
	if len(sm.Sig) == 0 {
		return nil, fmt.Errorf("%w: shardmap: signed map missing payload or signature", ErrVerification)
	}
	if err := v.cachedVerifySig(pub, sm.Sig, sm.Map.SigPayload()); err != nil {
		return nil, fmt.Errorf("%w: shardmap: signature does not verify: %v", ErrVerification, err)
	}
	return pub, nil
}

// mapMemo is the signed shard map a Verifier last checked in full: its
// exact bytes (a copy — the frame they arrived in is the caller's), the
// table it was checked for, what the bytes decode to, and the key its
// signature was checked under.
type mapMemo struct {
	raw   []byte
	table string
	sm    *shardmap.Signed
	pub   *sig.PublicKey
}

// VerifySignedMap decodes the signed shard map in raw and checks it as
// VerifyShardMap does. Every answer carries the map, byte-identical until
// the next refresh, and decoding, validation, the table check and the
// signature check are functions of those bytes: when raw equals the bytes
// the last full check passed on, their outcome is reused. The clock is
// not: the map's key version is resolved at the verifier's clock on every
// call, and reuse also requires it to resolve to the very key the
// signature was checked under — anything else runs the full check. The
// returned map may be shared by concurrent callers and is read-only.
func (v *Verifier) VerifySignedMap(raw []byte, table string) (*shardmap.Signed, error) {
	if m := v.mapMemo.Load(); m != nil && m.table == table && bytes.Equal(m.raw, raw) {
		pub, err := v.resolveKey(m.sm.Map.KeyVersion, v.now())
		if err != nil {
			return nil, err
		}
		if pub == m.pub {
			return m.sm, nil
		}
	}
	raw = bytes.Clone(raw)
	sm, err := shardmap.DecodeSigned(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: shard map: %v", ErrMalformed, err)
	}
	pub, err := v.verifyShardMap(sm, table)
	if err != nil {
		return nil, err
	}
	v.mapMemo.Store(&mapMemo{raw: raw, table: table, sm: sm, pub: pub})
	return sm, nil
}

// VerifyAnchored runs the standard VO verification and additionally
// requires the VO's top digest to recover to rootDigest — the binding
// that ties a per-shard answer to the verified shard map. rootDigest
// comes from a VerifyShardMap-checked map, never from the edge directly.
func (v *Verifier) VerifyAnchored(rs *vo.ResultSet, w *vo.VO, rootDigest []byte) error {
	top, err := v.verify(rs, w)
	if err != nil {
		return err
	}
	if !bytes.Equal(top, rootDigest) {
		return fmt.Errorf("%w: %w: VO anchors at a different root than the shard map pins (stale or cross-wired shard answer)",
			ErrVerification, ErrShardBinding)
	}
	return nil
}
