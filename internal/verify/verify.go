// Package verify implements the client side of the authentication
// protocol: given a query result and its verification object, it
// recomputes the root digest of the VB-tree and checks it against the
// central server's signature over the root (Lemmas 1 and 2 of the paper).
//
// The tree commits by ordered hashes (package digest), and a VO carries
// the envelope of the answer from the root down (package vo). The
// verifier recomputes the root structurally (ordered.go): each node
// record's in-node proof is folded bottom-up, a recomputed position of a
// leaf being the next result row's tuple digest — its returned values
// hashed, its projected-out ones taken from D_P, in column order — and
// one of an internal node the next record's node. There is no product to
// rebalance: a changed value, a moved row, a dropped or substituted digest
// or a spurious tuple changes the root, and the one signature over it
// fails.
//
// What a verified answer costs is hashes and one signature check. D_S
// and D_P are read where they lie in the answer's frame (vo.VO holds them
// as the runs they travel as) and every digest is copied into the
// preimage it enters. Root signatures go through the verified-digest
// cache (cache.go), so a repeat answer from an unchanged shard checks no
// signature. The signed shard map every answer carries is a function of
// its bytes up to the clock: VerifySignedMap decodes and checks each
// distinct map once and resolves its key at the verifier's clock on
// every call.
package verify

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"edgeauth/internal/digest"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/vo"
)

// Errors distinguishing rejection causes (all wrap ErrVerification).
var (
	// ErrVerification is the base failure: the reconstructed digest does
	// not match the signed digest.
	ErrVerification = errors.New("verify: result failed verification")
	// ErrBadSignature marks a VO whose root signature does not check.
	ErrBadSignature = errors.New("verify: invalid signature in VO")
	// ErrKeyVersion marks an unknown or expired signing-key version.
	ErrKeyVersion = errors.New("verify: signing key version not valid")
	// ErrFreshness marks a VO timestamp outside the clock-skew window
	// (backdated or future-dated response). Freshness failures also match
	// ErrKeyVersion — they are the §3.4 key-masquerade defence — but the
	// distinct sentinel lets clients skip recovery steps (like refetching
	// the trusted key) that cannot fix a stale timestamp.
	ErrFreshness = errors.New("verify: response timestamp not fresh")
	// ErrMalformed marks a structurally invalid result or VO.
	ErrMalformed = errors.New("verify: malformed result or VO")
)

// DefaultMaxClockSkew is the freshness window applied when
// Verifier.MaxClockSkew is zero: how far a VO's timestamp may deviate
// from the verifier's own clock (either direction) before the response is
// rejected.
const DefaultMaxClockSkew = 5 * time.Minute

// Verifier checks query results against the central server's public keys.
type Verifier struct {
	// Keys resolves key versions. Either Keys or Key must be set.
	Keys *sig.Registry
	// Key pins a single public key (used when no registry is deployed).
	Key *sig.PublicKey
	// Acc must match the accumulator parameters the central server used.
	Acc *digest.Accumulator
	// Schema is the base-table schema (for column name/type resolution).
	Schema *schema.Schema
	// Now supplies the verifier's own clock (Unix seconds); nil selects
	// time.Now. Key validity (§3.4) is resolved against THIS clock — the
	// VO's timestamp is attacker-controlled on a compromised edge, so
	// trusting it would let a backdated response resurrect an expired
	// signing key.
	Now func() int64
	// MaxClockSkew bounds |Now - VO.Timestamp|: responses stamped further
	// in the past (edge replaying an old answer) or the future
	// (pre-forging against an upcoming window) are rejected with
	// ErrKeyVersion. 0 selects DefaultMaxClockSkew; negative disables the
	// timestamp bound (key validity is still checked at Now).
	MaxClockSkew time.Duration
	// CacheSize bounds the verified-digest cache: signatures already
	// proven once are answered from memory, so repeat queries over
	// unchanged shards skip signature work entirely. 0 selects
	// DefaultCacheSize; negative disables caching.
	CacheSize int

	cacheOnce   sync.Once
	digestCache *sigCache
	// mapMemo is the shard map VerifySignedMap last checked in full.
	mapMemo atomic.Pointer[mapMemo]
}

// now resolves the verifier's clock.
func (v *Verifier) now() int64 {
	if v.Now != nil {
		return v.Now()
	}
	return time.Now().Unix()
}

// skewSeconds resolves MaxClockSkew; negative means disabled. Positive
// sub-second windows round up to one second (the VO timestamp has
// one-second resolution, so a zero-second window would reject almost
// everything).
func (v *Verifier) skewSeconds() int64 {
	switch {
	case v.MaxClockSkew == 0:
		return int64(DefaultMaxClockSkew / time.Second)
	case v.MaxClockSkew < 0:
		return -1
	default:
		return int64((v.MaxClockSkew + time.Second - 1) / time.Second)
	}
}

// checkFreshness rejects VO timestamps outside the clock-skew window
// around the verifier's own clock.
func (v *Verifier) checkFreshness(voTimestamp, atUnix int64) error {
	skew := v.skewSeconds()
	if skew < 0 {
		return nil
	}
	if voTimestamp < atUnix-skew {
		return fmt.Errorf("%w: %w: VO timestamp %d is %ds behind the client clock %d (max skew %ds) — backdated response",
			ErrKeyVersion, ErrFreshness, voTimestamp, atUnix-voTimestamp, atUnix, skew)
	}
	if voTimestamp > atUnix+skew {
		return fmt.Errorf("%w: %w: VO timestamp %d is %ds ahead of the client clock %d (max skew %ds) — future-dated response",
			ErrKeyVersion, ErrFreshness, voTimestamp, voTimestamp-atUnix, atUnix, skew)
	}
	return nil
}

// resolveKey picks the public key for a VO. atUnix is the verifier's own
// clock reading, never the edge-supplied timestamp.
func (v *Verifier) resolveKey(keyVersion uint32, atUnix int64) (*sig.PublicKey, error) {
	if v.Keys != nil {
		k, err := v.Keys.Resolve(keyVersion, atUnix)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrKeyVersion, err)
		}
		return k, nil
	}
	if v.Key == nil {
		return nil, errors.New("verify: no trusted key configured")
	}
	if v.Key.Version != keyVersion {
		return nil, fmt.Errorf("%w: VO signed with version %d, trusted key is %d",
			ErrKeyVersion, keyVersion, v.Key.Version)
	}
	if !v.Key.ValidAt(atUnix) {
		return nil, fmt.Errorf("%w: trusted key expired", ErrKeyVersion)
	}
	return v.Key, nil
}

// Verify checks rs against w. A nil error means the result is authentic:
// the returned values are untampered and no spurious tuples are present.
func (v *Verifier) Verify(rs *vo.ResultSet, w *vo.VO) error {
	_, err := v.verify(rs, w)
	return err
}

// verify is Verify returning the signed root digest on success, so
// callers that additionally bind the answer to a shard map
// (VerifyAnchored) check the same digest.
func (v *Verifier) verify(rs *vo.ResultSet, w *vo.VO) (digest.Value, error) {
	an, err := v.anchor(rs, w)
	if err != nil {
		return nil, err
	}
	root, err := v.orderedDigest(an, rs, w)
	if err != nil {
		return nil, err
	}
	if !root.Equal(an.topU) {
		return nil, fmt.Errorf("%w: digest mismatch (computed %v, signed %v)", ErrVerification, root, an.topU)
	}
	return an.topU, nil
}

// anchored is the trusted side of the verification, fixed before any
// digest is recomputed.
type anchored struct {
	colIdx []int        // schema index of each result column
	topU   digest.Value // the root digest the central server signed
}

// anchor runs every check that does not need a hash — shape, identity,
// freshness, key resolution, column mapping — and checks the root
// signature over the VO's top digest.
func (v *Verifier) anchor(rs *vo.ResultSet, w *vo.VO) (*anchored, error) {
	if v.Acc == nil || v.Schema == nil {
		return nil, errors.New("verify: verifier not configured")
	}
	if rs == nil || w == nil {
		return nil, fmt.Errorf("%w: missing result or VO", ErrMalformed)
	}
	if err := rs.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if rs.DB != v.Schema.DB || rs.Table != v.Schema.Table {
		return nil, fmt.Errorf("%w: result identity %s.%s does not match schema %s.%s",
			ErrMalformed, rs.DB, rs.Table, v.Schema.DB, v.Schema.Table)
	}
	if w.TopLevel < 1 {
		return nil, fmt.Errorf("%w: top level %d", ErrMalformed, w.TopLevel)
	}
	// Freshness (§3.4): the key's validity is resolved against the
	// client's own clock. The VO timestamp comes from the untrusted edge —
	// it is only checked for plausibility (within the skew window), never
	// used to time-travel key validity.
	at := v.now()
	if err := v.checkFreshness(w.Timestamp, at); err != nil {
		return nil, err
	}
	pub, err := v.resolveKey(w.KeyVersion, at)
	if err != nil {
		return nil, err
	}

	// Map result columns to schema columns, and find which are filtered.
	// A schema has tens of columns: a duplicate is found by looking back.
	colIdx := make([]int, len(rs.Columns))
	for i, name := range rs.Columns {
		ci := v.Schema.ColumnIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("%w: unknown column %q", ErrMalformed, name)
		}
		if slices.Contains(colIdx[:i], ci) {
			return nil, fmt.Errorf("%w: duplicate column %q", ErrMalformed, name)
		}
		colIdx[i] = ci
	}
	if err := w.CheckRuns(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	nFilteredPerTuple := len(v.Schema.Columns) - len(rs.Columns)
	if want := nFilteredPerTuple * len(rs.Tuples); w.NumDP() != want {
		return nil, fmt.Errorf("%w: D_P carries %d digests, want %d", ErrMalformed, w.NumDP(), want)
	}

	// The root signature is checked under the key the TRUSTED registry
	// resolved, whatever the VO claims — an edge that lies about the
	// scheme (cross-scheme confusion) can only fail here. It is the
	// single signature check of the whole VO.
	if len(w.TopDigest) != v.Acc.Len() {
		return nil, fmt.Errorf("%w: top digest has %d bytes, want %d",
			ErrBadSignature, len(w.TopDigest), v.Acc.Len())
	}
	if len(w.RootSig) == 0 {
		return nil, fmt.Errorf("%w: VO is missing the root signature", ErrBadSignature)
	}
	if err := v.cachedVerifySig(pub, w.RootSig, w.TopDigest); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSignature, err)
	}
	return &anchored{colIdx: colIdx, topU: digest.Value(w.TopDigest)}, nil
}
