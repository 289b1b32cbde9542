// Package verify implements the client side of the authentication
// protocol: given a query result and its verification object, it
// recomputes the enveloping subtree's digest and compares it against the
// signed digest from the trusted central server (Lemmas 1 and 2 of the
// paper).
//
// The verification equation, for an enveloping subtree top at level L
// (leaves = 1), is
//
//	s⁻¹(D_N) = Π_j g^L(U_Tj)                 — result tuples
//	         · Π g^(L+1)(s⁻¹(d)), d ∈ D_P    — filtered attributes
//	         · Π g^lift(s⁻¹(d)), (d,lift) ∈ D_S — filtered tuples/branches
//	                                             (mod m)
//
// where U_Tj is recomputed from the returned attribute values with the
// one-way hash h of formula (1). Each result tuple's partial digest is the
// product of its computed attribute digests; because g is multiplicative
// (Π g(dᵢ) = g(Π dᵢ)), everything owed the same number of g's is first
// multiplied together — the attribute digests of all tuples with D_P, the
// D_S entries of each lift — and the levels are then folded Horner-style,
// one g per level instead of one per digest per level. Any change to a
// returned value, any dropped digest, or any spurious tuple breaks the
// equation with overwhelming probability; a forged signature fails
// structural recovery.
//
// That equation is per-node rsa's, whose every digest is signed. Under a
// Merkle scheme only the root is, and a product of raw digests could be
// rebalanced, so the tree commits by ordered hashes and the verifier
// recomputes the root structurally from the VO's node records instead
// (ordered.go).
//
// What a verified answer costs is what formula (10) charges — hashes,
// combines, signature recoveries — and little besides. D_S and D_P are
// read where they lie in the answer's frame (vo.VO holds them as the
// fixed-width runs they travel as): under a Merkle scheme, where they are
// the raw digests, the VO's one width is checked against the accumulator
// once and every digest is copied into the preimage it enters; under
// per-node rsa every entry is recovered, through the verified-digest
// cache, and folded into its level. The signed
// shard map every answer carries is a function of its bytes up to the
// clock: VerifySignedMap decodes and checks each distinct map once and
// resolves its key at the verifier's clock on every call.
package verify

import (
	"bytes"
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
	// ErrBadSignature marks a VO digest whose signature does not recover.
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
	// proven once (recovered or detached-verified) are answered from
	// memory, so repeat queries over unchanged tree regions skip
	// signature work entirely. 0 selects DefaultCacheSize; negative
	// disables caching.
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

// verify is Verify returning the recovered top digest on success, so
// callers that additionally bind the envelope (VerifyAnchored) don't
// pay a second RSA recovery of the same signature.
func (v *Verifier) verify(rs *vo.ResultSet, w *vo.VO) (digest.Value, error) {
	an, err := v.anchor(rs, w)
	if err != nil {
		return nil, err
	}
	product, err := v.envelopeDigest(an, rs, w)
	if err != nil {
		return nil, err
	}
	if !product.Equal(an.topU) {
		return nil, fmt.Errorf("%w: digest mismatch (computed %v, signed %v)", ErrVerification, product, an.topU)
	}
	return an.topU, nil
}

// anchored is the trusted side of the verification equation, fixed before
// any digest is combined.
type anchored struct {
	pub    *sig.PublicKey // the key the VO's version resolved to
	colIdx []int          // schema index of each result column
	topU   digest.Value   // the top digest the central server signed
}

// anchor runs every check that does not need the combiner — shape,
// identity, freshness, key resolution, column mapping — and reads the
// signed top digest.
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

	// Anchor the envelope. The verification shape is derived from the
	// TRUSTED key's scheme, never from the VO's own fields — an edge that
	// lies about the scheme (cross-scheme confusion) can only fail here.
	merkle := pub.Scheme.Merkle()
	var topU digest.Value
	if merkle {
		// Merkle scheme: TopDigest is the raw root digest, RootSig the
		// central's signature over it — the single signature check of the
		// whole VO.
		if len(w.TopDigest) != v.Acc.Len() {
			return nil, fmt.Errorf("%w: merkle top digest has %d bytes, want %d",
				ErrBadSignature, len(w.TopDigest), v.Acc.Len())
		}
		if len(w.RootSig) == 0 {
			return nil, fmt.Errorf("%w: merkle VO is missing the root signature", ErrBadSignature)
		}
		if err := v.cachedVerifySig(pub, w.RootSig, w.TopDigest); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSignature, err)
		}
		topU = digest.Value(w.TopDigest)
	} else {
		// Legacy scheme: every digest is individually signed and there is
		// no detached root signature. A VO carrying one is malformed — or
		// an attacker replaying merkle-shaped material under an RSA-full
		// key version.
		if len(w.RootSig) != 0 {
			return nil, fmt.Errorf("%w: unexpected root signature under the %v scheme",
				ErrBadSignature, pub.Scheme)
		}
		topU, err = v.cachedRecover(pub, w.TopDigest)
		if err != nil {
			return nil, err
		}
	}

	return &anchored{pub: pub, colIdx: colIdx, topU: topU}, nil
}

// envelopeDigest computes the untrusted side of the equation: the digest
// of the enveloping subtree as the result and the VO describe it.
func (v *Verifier) envelopeDigest(an *anchored, rs *vo.ResultSet, w *vo.VO) (digest.Value, error) {
	if an.pub.Scheme.Merkle() {
		return v.orderedDigest(an, rs, w)
	}
	if w.Ordered() {
		return nil, fmt.Errorf("%w: node records in a %v VO", ErrMalformed, an.pub.Scheme)
	}
	L := int(w.TopLevel)

	// One running product per level. levels[k] collects the digests that
	// owe k applications of g: the attribute digests — computed for
	// returned values, carried in D_P for projected-out ones — at L+1, a
	// D_S entry at its tagged lift. Each is one modular multiplication;
	// the g's come afterwards, once per level.
	levels := make([]*digest.Acc, L+2)
	for k := 1; k <= L+1; k++ {
		levels[k] = v.Acc.NewAcc()
	}
	attrs := levels[L+1]
	// One key, one value and one digest buffer serve every attribute: Add
	// folds the digest into the product and keeps nothing of it.
	var keyBytes, valBytes []byte
	var d digest.Value
	for j := range rs.Tuples {
		keyBytes = rs.Keys[j].EncodeKey(keyBytes[:0])
		for i, ci := range an.colIdx {
			val := rs.Tuples[j].Values[i]
			if val.Type != v.Schema.Columns[ci].Type {
				return nil, fmt.Errorf("%w: tuple %d column %q has type %v, want %v",
					ErrMalformed, j, rs.Columns[i], val.Type, v.Schema.Columns[ci].Type)
			}
			valBytes = val.Canonical(valBytes[:0])
			d = v.Acc.HashAttributeTo(d, rs.DB, rs.Table, v.Schema.Columns[ci].Name, keyBytes, valBytes)
			if err := attrs.Add(d); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
			}
		}
	}
	if err := v.foldSignedRuns(an.pub, levels, w); err != nil {
		return nil, err
	}
	// Horner's rule on the equation above, B_k the product at level k:
	//
	//	g(B_1 · g(B_2 · … g(B_{L+1})))
	//
	// Value applies g to a level's product; Add hands the result down as
	// one more factor of the level below. L+1 exponentiations per VO,
	// whatever lifts the VO claims.
	for k := L + 1; k > 1; k-- {
		if err := levels[k-1].Add(levels[k].Value()); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
	}
	return levels[1].Value(), nil
}

// foldSignedRuns multiplies a per-node rsa VO's D_P and D_S digests into
// their levels: every entry is a signature, recovered (through the
// verified-digest cache) to the digest it commits to before it is
// multiplied in.
func (v *Verifier) foldSignedRuns(pub *sig.PublicKey, levels []*digest.Acc, w *vo.VO) error {
	L := len(levels) - 2
	for i := 0; i < w.NumDP(); i++ {
		u, err := v.cachedRecover(pub, w.DPDigest(i))
		if err != nil {
			return err
		}
		if err := levels[L+1].Add(u); err != nil {
			return fmt.Errorf("%w: %v", ErrMalformed, err)
		}
	}
	for i := 0; i < w.NumDS(); i++ {
		lift := w.DSLift(i)
		if lift < 1 || int(lift) > L {
			return fmt.Errorf("%w: D_S entry %d has lift %d outside [1,%d]", ErrMalformed, i, lift, L)
		}
		u, err := v.cachedRecover(pub, w.DSDigest(i))
		if err != nil {
			return err
		}
		if err := levels[lift].Add(u); err != nil {
			return fmt.Errorf("%w: %v", ErrMalformed, err)
		}
	}
	return nil
}

// recoverDigest applies s⁻¹ and validates the digest length.
func recoverDigest(pub *sig.PublicKey, acc *digest.Accumulator, s sig.Signature) (digest.Value, error) {
	payload, err := pub.Recover(s)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSignature, err)
	}
	if len(payload) != acc.Len() {
		return nil, fmt.Errorf("%w: recovered %d bytes, want %d", ErrBadSignature, len(payload), acc.Len())
	}
	return digest.Value(payload), nil
}

// VerifyTuple authenticates a single stored tuple against its signed
// attribute digests and signed tuple digest — the unit check used by the
// Naive baseline and by point lookups.
func (v *Verifier) VerifyTuple(st *vo.StoredTuple, tupleSig sig.Signature, pub *sig.PublicKey) error {
	if err := st.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if len(st.Tuple.Values) != len(v.Schema.Columns) {
		return fmt.Errorf("%w: tuple has %d values for %d columns",
			ErrMalformed, len(st.Tuple.Values), len(v.Schema.Columns))
	}
	if pub.Scheme.Merkle() {
		attrs, ut := orderedTuple(v.Acc, v.Schema, st.Tuple)
		for i, d := range attrs {
			if !bytes.Equal(st.AttrSigs[i], d) {
				return fmt.Errorf("%w: attribute %q digest mismatch", ErrVerification, v.Schema.Columns[i].Name)
			}
		}
		if !bytes.Equal(tupleSig, ut) {
			return fmt.Errorf("%w: tuple digest mismatch", ErrVerification)
		}
		return nil
	}
	keyBytes := st.Tuple.Key(v.Schema).KeyBytes()
	acc := v.Acc.NewAcc()
	for i, val := range st.Tuple.Values {
		d := v.Acc.HashAttribute(v.Schema.DB, v.Schema.Table, v.Schema.Columns[i].Name, keyBytes, val.CanonicalBytes())
		// The stored attribute digest must commit to the computed one.
		u, err := v.cachedRecover(pub, st.AttrSigs[i])
		if err != nil {
			return err
		}
		if !u.Equal(d) {
			return fmt.Errorf("%w: attribute %q digest mismatch", ErrVerification, v.Schema.Columns[i].Name)
		}
		if err := acc.Add(d); err != nil {
			return fmt.Errorf("%w: %v", ErrMalformed, err)
		}
	}
	ut, err := v.cachedRecover(pub, tupleSig)
	if err != nil {
		return err
	}
	if !ut.Equal(acc.Value()) {
		return fmt.Errorf("%w: tuple digest mismatch", ErrVerification)
	}
	return nil
}
