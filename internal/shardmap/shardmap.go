// Package shardmap defines the signed shard map that binds the
// independently-signed VB-tree shards of a range-partitioned table back
// into one verifiable relation.
//
// The paper anchors each table in a single signed root, so every insert
// batch serializes on one root re-sign and every delta funnels through
// one tree. Range-partitioning the table into N shards parallelizes the
// RSA-bound write path — but it opens a new attack surface: an untrusted
// edge server could silently drop a whole shard from a range answer, or
// serve one shard from a stale replica, and per-shard VO verification
// alone would not notice. The shard map closes that hole:
//
//   - The central server re-signs the map on every committed update. The
//     map carries the table's epoch, a monotonically increasing map
//     version, the ordered boundary keys, and each shard's unsigned root
//     digest and commit version.
//   - Clients treat the map as untrusted input (it travels through the
//     edge), verify the central server's signature over it, and derive
//     the set of shards a key range intersects from the *verified*
//     boundaries. An answer must arrive for every qualifying shard, and
//     each per-shard VO must anchor at exactly the root digest the map
//     pins — so a dropped shard, an invented boundary, or a stale
//     single-shard answer all fail verification.
//
// Boundary semantics: a map with N shards carries N-1 strictly
// increasing boundary keys; shard i covers keys k with
// Boundaries[i-1] <= k < Boundaries[i] (the first and last shards are
// open-ended below and above). Adjacent shards therefore tile the whole
// key space with no gaps and no overlaps by construction, which is the
// cross-shard half of the completeness argument: completeness inside a
// shard is the VB-tree's enveloping-subtree proof, completeness across
// shards is the verified map plus one answer per qualifying shard.
package shardmap

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
)

// ShardState pins one shard's current anchor inside the map.
type ShardState struct {
	// RootDigest is the shard tree's *unsigned* root digest. A client
	// binds each per-shard VO to the map by recovering the VO's top
	// digest and comparing it against this value, so the map must carry
	// the digest in the clear (the map as a whole is signed).
	RootDigest []byte
	// Version is the shard's commit version (bumped once per committed
	// update that touched the shard). Edges use it to request per-shard
	// deltas; clients use it only diagnostically.
	Version uint64
	// ID is the shard's stable identity, assigned once when the shard is
	// created and never reused within a table incarnation. Shard slice
	// indices shift when the partition splits or merges; IDs let an edge
	// recognize which of its pinned stores survive a transition. Never
	// zero.
	ID uint64
}

// Map is the unsigned shard-map payload.
type Map struct {
	// Table names the partitioned relation.
	Table string
	// Epoch is the table incarnation (shared by every shard).
	Epoch uint64
	// MapVersion increases by one on every committed update to any
	// shard, so two maps for the same epoch are totally ordered.
	MapVersion uint64
	// KeyVersion is the signing-key version the map (and the shard
	// roots it pins) are signed under.
	KeyVersion uint32
	// SignedAt is when the central server signed this map (Unix
	// seconds). It is informational: map staleness is bounded by the
	// signing key's validity window (§3.4), not by a clock-skew check,
	// because an idle table's map is legitimately old.
	SignedAt int64
	// MapEpoch is the partition generation: it starts at 1 and is bumped
	// by exactly one each time the boundary set changes (a split or a
	// merge). Maps within one MapEpoch differ only in shard versions and
	// digests; maps across MapEpochs describe different partitions.
	MapEpoch uint64
	// ParentEpoch links a map to the partition generation it was derived
	// from (MapEpoch-1 after a transition, and for generation 1 it is 0,
	// the origin). The explicit link lets clients fail closed on a
	// replayed pre-transition map: once a client has verified a map of
	// generation g, any later map with MapEpoch < g is a replay, not a
	// concurrent alternative — generations form a signed chain, never a
	// fork.
	ParentEpoch uint64
	// Boundaries are the N-1 strictly increasing split keys of an
	// N-shard table; all must share the key column's type.
	Boundaries []schema.Datum
	// Shards holds one state per shard, in range order.
	Shards []ShardState
}

// Validate rejects maps that cannot describe a partitioned table. It is
// deliberately strict — the map is untrusted input at the client.
func (m *Map) Validate() error {
	if m.Table == "" {
		return errors.New("shardmap: missing table name")
	}
	if len(m.Shards) == 0 {
		return errors.New("shardmap: no shards")
	}
	if len(m.Boundaries) != len(m.Shards)-1 {
		return fmt.Errorf("shardmap: %d boundaries for %d shards", len(m.Boundaries), len(m.Shards))
	}
	dlen := len(m.Shards[0].RootDigest)
	if dlen == 0 {
		return errors.New("shardmap: empty root digest")
	}
	for i, s := range m.Shards {
		if len(s.RootDigest) != dlen {
			return fmt.Errorf("shardmap: shard %d root digest has %d bytes, shard 0 has %d", i, len(s.RootDigest), dlen)
		}
	}
	// Every map belongs to a partition generation and every shard has a
	// stable identity: the client's replay ratchet keys on the former and
	// the edge's store carry-over on the latter, so neither may be absent.
	if m.MapEpoch == 0 {
		return errors.New("shardmap: missing map epoch")
	}
	if m.ParentEpoch >= m.MapEpoch {
		return fmt.Errorf("shardmap: parent epoch %d not before map epoch %d", m.ParentEpoch, m.MapEpoch)
	}
	seen := make(map[uint64]int, len(m.Shards))
	for i, s := range m.Shards {
		if s.ID == 0 {
			return fmt.Errorf("shardmap: shard %d missing ID", i)
		}
		if j, dup := seen[s.ID]; dup {
			return fmt.Errorf("shardmap: shards %d and %d share ID %d", j, i, s.ID)
		}
		seen[s.ID] = i
	}
	for i, b := range m.Boundaries {
		if b.IsZero() {
			return fmt.Errorf("shardmap: boundary %d is invalid", i)
		}
		if b.Type != m.Boundaries[0].Type {
			return fmt.Errorf("shardmap: boundary %d has type %v, boundary 0 has %v", i, b.Type, m.Boundaries[0].Type)
		}
		if i > 0 && m.Boundaries[i-1].Compare(b) >= 0 {
			return fmt.Errorf("shardmap: boundaries not strictly increasing at %d", i)
		}
	}
	return nil
}

// NumShards returns the shard count.
func (m *Map) NumShards() int { return len(m.Shards) }

// ShardFor returns the index of the shard covering key: the number of
// boundaries <= key. The caller is responsible for key having the
// boundary type (a mismatched type compares on type tag, which still
// yields a deterministic — if meaningless — shard).
func (m *Map) ShardFor(key schema.Datum) int {
	// Binary search for the first boundary > key.
	lo, hi := 0, len(m.Boundaries)
	for lo < hi {
		mid := (lo + hi) / 2
		if m.Boundaries[mid].Compare(key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ShardsForRange returns the inclusive shard index interval a closed key
// range [lo, hi] intersects. A nil bound is unbounded on that side.
func (m *Map) ShardsForRange(lo, hi *schema.Datum) (first, last int) {
	first, last = 0, len(m.Shards)-1
	if lo != nil {
		first = m.ShardFor(*lo)
	}
	if hi != nil {
		last = m.ShardFor(*hi)
	}
	return first, last
}

// --- binary codec (the client-side decoder is fuzzed) ---

// encoding helpers (the wire package's primitives, duplicated here so
// shardmap stays independent of wire and can be imported by it).

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendStr(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

func appendBytes(dst []byte, b []byte) []byte {
	dst = appendU32(dst, uint32(len(b)))
	return append(dst, b...)
}

type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("shardmap: truncated %s at offset %d", what, r.off)
	}
}

func (r *reader) u32(what string) uint32 {
	if r.err != nil || r.off+4 > len(r.data) {
		r.fail(what)
		return 0
	}
	v := uint32(r.data[r.off])<<24 | uint32(r.data[r.off+1])<<16 | uint32(r.data[r.off+2])<<8 | uint32(r.data[r.off+3])
	r.off += 4
	return v
}

func (r *reader) u64(what string) uint64 {
	hi := r.u32(what)
	lo := r.u32(what)
	return uint64(hi)<<32 | uint64(lo)
}

func (r *reader) str(what string) string {
	n := int(r.u32(what))
	if r.err != nil || n < 0 || r.off+n > len(r.data) {
		r.fail(what)
		return ""
	}
	s := string(r.data[r.off : r.off+n])
	r.off += n
	return s
}

func (r *reader) bytes(what string) []byte {
	n := int(r.u32(what))
	if r.err != nil || n < 0 || r.off+n > len(r.data) {
		r.fail(what)
		return nil
	}
	b := make([]byte, n)
	copy(b, r.data[r.off:r.off+n])
	r.off += n
	return b
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("shardmap: %d trailing bytes", len(r.data)-r.off)
	}
	return nil
}

// Encode serializes the unsigned map payload (the bytes the signature
// covers).
func (m *Map) Encode() []byte {
	out := appendStr(nil, m.Table)
	out = appendU64(out, m.Epoch)
	out = appendU64(out, m.MapVersion)
	out = appendU32(out, m.KeyVersion)
	out = appendU64(out, uint64(m.SignedAt))
	out = appendU64(out, m.MapEpoch)
	out = appendU64(out, m.ParentEpoch)
	out = appendU32(out, uint32(len(m.Boundaries)))
	for _, b := range m.Boundaries {
		out = b.Encode(out)
	}
	out = appendU32(out, uint32(len(m.Shards)))
	for _, s := range m.Shards {
		out = appendBytes(out, s.RootDigest)
		out = appendU64(out, s.Version)
		out = appendU64(out, s.ID)
	}
	return out
}

// Decode parses and validates an unsigned map payload. It is the
// untrusted-input decoder: every count is bounded against the input
// length before allocation, and the decoded map must Validate.
func Decode(body []byte) (*Map, error) {
	r := &reader{data: body}
	m := &Map{Table: r.str("table")}
	m.Epoch = r.u64("epoch")
	m.MapVersion = r.u64("map version")
	m.KeyVersion = r.u32("key version")
	m.SignedAt = int64(r.u64("signed-at"))
	m.MapEpoch = r.u64("map epoch")
	m.ParentEpoch = r.u64("parent epoch")
	// A boundary takes at least 5 bytes (an empty string datum), a shard
	// at least 20 (digest length, version, id).
	if bn := r.u32("boundary count"); r.err == nil && bn > 0 {
		if uint64(bn)*5 > uint64(len(body)-r.off) {
			return nil, errors.New("shardmap: implausible boundary count")
		}
		m.Boundaries = make([]schema.Datum, bn)
		for i := range m.Boundaries {
			d, used, err := schema.DecodeDatum(r.data[r.off:])
			if err != nil {
				return nil, fmt.Errorf("shardmap: boundary %d: %w", i, err)
			}
			r.off += used
			m.Boundaries[i] = d
		}
	}
	if sn := r.u32("shard count"); r.err == nil && sn > 0 {
		if uint64(sn)*20 > uint64(len(body)-r.off) {
			return nil, errors.New("shardmap: implausible shard count")
		}
		m.Shards = make([]ShardState, sn)
		for i := range m.Shards {
			s := &m.Shards[i]
			s.RootDigest = r.bytes("root digest")
			s.Version = r.u64("shard version")
			s.ID = r.u64("shard id")
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// sigDomain separates shard-map signatures from every other payload the
// central server signs (digests, deltas), so a signature can never be
// replayed across contexts. v2 added the partition-epoch chain
// (MapEpoch/ParentEpoch) and stable shard IDs; bumping the domain keeps
// any v1-era signature from validating over the extended encoding.
const sigDomain = "edgeauth/shardmap/v2\x00"

// SigPayload is the digest the central server signs: SHA-256 over the
// domain-separated map encoding.
func (m *Map) SigPayload() []byte {
	h := sha256.New()
	h.Write([]byte(sigDomain))
	h.Write(m.Encode())
	return h.Sum(nil)
}

// Signed is a map plus the central server's signature over it.
type Signed struct {
	Map *Map
	Sig sig.Signature
}

// Sign validates m and wraps it with the central server's signature.
func Sign(m *Map, key *sig.PrivateKey) (*Signed, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	s, err := key.Sign(m.SigPayload())
	if err != nil {
		return nil, err
	}
	return &Signed{Map: m, Sig: s}, nil
}

// Verify checks the signature against the central server's public key.
// Detached verification (not recovery), so it works for every scheme the
// key registry can carry. Key-version resolution and validity are the
// caller's business (the client resolves the map's KeyVersion against
// its registry at its own clock before calling this).
func (s *Signed) Verify(pub *sig.PublicKey) error {
	if s.Map == nil || len(s.Sig) == 0 {
		return errors.New("shardmap: signed map missing payload or signature")
	}
	if err := pub.Verify(s.Sig, s.Map.SigPayload()); err != nil {
		return fmt.Errorf("shardmap: signature does not verify: %w", err)
	}
	return nil
}

// Encode serializes the signed map (payload + signature).
func (s *Signed) Encode() []byte {
	out := appendBytes(nil, s.Map.Encode())
	return appendBytes(out, s.Sig)
}

// DecodeSigned parses a signed map. The payload is decoded (and
// validated) but NOT signature-checked: callers must Verify against a
// trusted key before using anything inside.
func DecodeSigned(body []byte) (*Signed, error) {
	r := &reader{data: body}
	payload := r.bytes("map payload")
	sg := r.bytes("map signature")
	if err := r.done(); err != nil {
		return nil, err
	}
	m, err := Decode(payload)
	if err != nil {
		return nil, err
	}
	if len(sg) == 0 {
		return nil, errors.New("shardmap: missing signature")
	}
	return &Signed{Map: m, Sig: sig.Signature(sg)}, nil
}

// Clone returns a deep copy of the unsigned map.
func (m *Map) Clone() *Map {
	c := &Map{
		Table:       m.Table,
		Epoch:       m.Epoch,
		MapVersion:  m.MapVersion,
		KeyVersion:  m.KeyVersion,
		SignedAt:    m.SignedAt,
		MapEpoch:    m.MapEpoch,
		ParentEpoch: m.ParentEpoch,
	}
	for _, b := range m.Boundaries {
		// Datum is a value type except for bytes payloads; copy those so
		// an attack mutating the clone cannot reach the canonical map.
		if b.Type == schema.TypeBytes {
			b.B = append([]byte(nil), b.B...)
		}
		c.Boundaries = append(c.Boundaries, b)
	}
	for _, sh := range m.Shards {
		c.Shards = append(c.Shards, ShardState{
			RootDigest: append([]byte(nil), sh.RootDigest...),
			Version:    sh.Version,
			ID:         sh.ID,
		})
	}
	return c
}
