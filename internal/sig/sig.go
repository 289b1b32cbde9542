// Package sig implements the digital-signature scheme s / s⁻¹ of the
// VB-tree paper: signing with the central DBMS's private key, and
// *recovery* of the signed payload with the public key.
//
// The paper's verification protocol (formulas (1)–(5)) requires signatures
// with message recovery — the client "decrypts" each signed digest with the
// public key to obtain the unsigned digest. Here an rsa-merkle key signs
// one VB-tree root per shard version, and the Naive baseline every
// attribute and tuple digest. We implement RSA directly on math/big with
// deterministic PKCS#1 v1.5-style type-01 padding, so that
//
//	Recover(Sign(d)) = d
//
// holds exactly and the recovered payload's padding structure is checked on
// the way out. Signing uses the Chinese Remainder Theorem for speed; the
// paper notes (citing Rivest & Shamir) that signature generation is ~10000×
// and verification ~100× the cost of a hash — the VB-tree's whole point is
// to keep the number of recoveries small at the client.
//
// Key generation is self-contained (crypto/rand.Prime) so the key size is
// fully configurable: small keys for unit tests and cost benches, larger
// keys for a hardened profile.
package sig

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"sync/atomic"

	"edgeauth/internal/digest"
)

// DefaultBits is the default RSA modulus size used when no -bits flag is
// given: 1024 bits matches the paper's 2004-era evaluation so the
// published cost ratios (sign ≈ 10000× a hash, recover ≈ 100×) stay
// representative. It applies only to rsa-merkle; Ed25519 keys have a
// fixed 256-bit curve size and ignore it. Tests and benchmarks may pass
// smaller values down to MinBits.
const DefaultBits = 1024

// MinBits is the smallest modulus this package will generate. It exists to
// keep padding workable (k ≥ payload + 11), not as a security floor.
const MinBits = 256

var (
	// ErrBadSignature is returned when a signature fails structural
	// validation during recovery (wrong length, bad padding, value ≥ N).
	ErrBadSignature = errors.New("sig: invalid signature")
	// ErrPayloadTooLong is returned when the payload cannot fit the
	// modulus with minimum padding.
	ErrPayloadTooLong = errors.New("sig: payload too long for modulus")
	// ErrNoRecovery is returned by Recover on schemes without message
	// recovery (Ed25519): the payload must travel in the clear and be
	// checked with Verify instead.
	ErrNoRecovery = errors.New("sig: scheme does not support message recovery")
)

// Signature is a raw signature: big-endian and exactly the modulus
// length under rsa-merkle, ed25519.SignatureSize under Ed25519.
type Signature []byte

// Clone returns an independent copy of s.
func (s Signature) Clone() Signature {
	c := make(Signature, len(s))
	copy(c, s)
	return c
}

// Equal reports byte equality.
func (s Signature) Equal(o Signature) bool { return bytes.Equal(s, o) }

// PublicKey verifies/recovers signatures. Version and the validity window
// implement the paper's §3.4 key-rotation scheme for delayed update
// broadcast: edge servers cannot masquerade stale data signed under an
// expired key, because clients check the key version's validity period.
type PublicKey struct {
	N *big.Int // modulus (rsa-merkle)
	E *big.Int // public exponent (rsa-merkle)

	// Scheme selects the signature algorithm; the zero value names none.
	// Clients MUST take the scheme from the key they resolved out of
	// their trusted registry — never from wire metadata — so a lying edge
	// can only cause verification failure.
	Scheme Scheme
	// Ed is the Ed25519 public key when Scheme is SchemeEd25519.
	Ed ed25519.PublicKey

	// Version identifies the key generation; bumped when the central
	// server rotates keys after propagating updates.
	Version uint32
	// NotBefore/NotAfter bound the validity period (Unix seconds).
	// Zero values mean unbounded.
	NotBefore int64
	NotAfter  int64

	// Counters, when non-nil, has RecoverOps bumped on every Recover —
	// the Cost_s accounting of the paper's §4.3.
	Counters *digest.Counters
}

// Len returns the signature length in bytes: the modulus length for RSA
// schemes, ed25519.SignatureSize for Ed25519.
func (p *PublicKey) Len() int {
	if p.Scheme == SchemeEd25519 {
		return ed25519.SignatureSize
	}
	if p.N == nil {
		return 0
	}
	return (p.N.BitLen() + 7) / 8
}

// ValidAt reports whether the key's validity window covers the given Unix
// time.
func (p *PublicKey) ValidAt(unix int64) bool {
	if p.NotBefore != 0 && unix < p.NotBefore {
		return false
	}
	if p.NotAfter != 0 && unix > p.NotAfter {
		return false
	}
	return true
}

// PrivateKey signs digests. It retains CRT precomputation for fast signing.
type PrivateKey struct {
	// pub is the public half. SetValidity swaps in a restamped copy, so
	// Public can run beside a rotation without a lock.
	pub  atomic.Pointer[PublicKey]
	d    *big.Int // private exponent
	p, q *big.Int // prime factors
	dp   *big.Int // d mod (p-1)
	dq   *big.Int // d mod (q-1)
	qinv *big.Int // q⁻¹ mod p

	// ed is the Ed25519 private key when pub.Scheme is SchemeEd25519.
	ed ed25519.PrivateKey

	// counters, when non-nil, has SignOps bumped on every Sign — the
	// server-side cost accounting used by the batched-write tests to prove
	// how many RSA signatures a commit actually spent.
	counters *digest.Counters
}

// SetCounters installs (or clears, with nil) the sign-op counter sink.
func (k *PrivateKey) SetCounters(c *digest.Counters) { k.counters = c }

// Public returns the public half of the key. The returned value shares the
// modulus but carries its own Counters slot.
func (k *PrivateKey) Public() *PublicKey {
	p := *k.pub.Load()
	return &p
}

// Len returns the signature length in bytes.
func (k *PrivateKey) Len() int { return k.pub.Load().Len() }

// Scheme returns the key's signature scheme.
func (k *PrivateKey) Scheme() Scheme { return k.pub.Load().Scheme }

// SetValidity stamps the key pair's version and validity window (paper
// §3.4: "the central server can include the timestamp or version number in
// its public key"). It may run beside Public: readers see the old stamp
// or the new one, never a mix.
func (k *PrivateKey) SetValidity(version uint32, notBefore, notAfter int64) {
	p := *k.pub.Load()
	p.Version, p.NotBefore, p.NotAfter = version, notBefore, notAfter
	k.pub.Store(&p)
}

// generateRSA creates a fresh RSA key pair with the given modulus size.
func generateRSA(bits int) (*PrivateKey, error) {
	if bits < MinBits {
		return nil, fmt.Errorf("sig: key size %d below minimum %d", bits, MinBits)
	}
	for {
		p, err := rand.Prime(rand.Reader, bits/2)
		if err != nil {
			return nil, fmt.Errorf("sig: generating prime: %w", err)
		}
		q, err := rand.Prime(rand.Reader, bits-bits/2)
		if err != nil {
			return nil, fmt.Errorf("sig: generating prime: %w", err)
		}
		if k := keyFromPrimes(p, q); k != nil && k.pub.Load().N.BitLen() == bits {
			return k, nil
		}
	}
}

// keyFromPrimes assembles the RSA key pair over N = p·q with e = 65537,
// or returns nil when the primes do not make one (equal, or e not
// coprime to φ(N)); generateRSA then draws again.
func keyFromPrimes(p, q *big.Int) *PrivateKey {
	if p.Cmp(q) == 0 {
		return nil
	}
	e := big.NewInt(65537)
	one := big.NewInt(1)
	pm1 := new(big.Int).Sub(p, one)
	qm1 := new(big.Int).Sub(q, one)
	d := new(big.Int).ModInverse(e, new(big.Int).Mul(pm1, qm1))
	qinv := new(big.Int).ModInverse(q, p)
	if d == nil || qinv == nil {
		return nil
	}
	k := &PrivateKey{
		d:    d,
		p:    p,
		q:    q,
		dp:   new(big.Int).Mod(d, pm1),
		dq:   new(big.Int).Mod(d, qm1),
		qinv: qinv,
	}
	k.pub.Store(&PublicKey{N: new(big.Int).Mul(p, q), E: e, Scheme: SchemeRSAMerkle})
	return k
}

// pad builds the deterministic type-01 encoding
//
//	0x00 0x01 0xFF…0xFF 0x00 payload
//
// of exactly k bytes. At least 8 bytes of 0xFF are required, mirroring
// PKCS#1 v1.5.
func pad(payload []byte, k int) ([]byte, error) {
	if len(payload) > k-11 {
		return nil, ErrPayloadTooLong
	}
	em := make([]byte, k)
	em[0] = 0x00
	em[1] = 0x01
	ffEnd := k - len(payload) - 1
	for i := 2; i < ffEnd; i++ {
		em[i] = 0xFF
	}
	em[ffEnd] = 0x00
	copy(em[ffEnd+1:], payload)
	return em, nil
}

// unpad validates the type-01 structure and extracts the payload.
func unpad(em []byte) ([]byte, error) {
	if len(em) < 11 || em[0] != 0x00 || em[1] != 0x01 {
		return nil, ErrBadSignature
	}
	i := 2
	for i < len(em) && em[i] == 0xFF {
		i++
	}
	if i < 2+8 || i >= len(em) || em[i] != 0x00 {
		return nil, ErrBadSignature
	}
	return em[i+1:], nil
}

// Sign produces the signature over payload: s(payload) = pad(payload)^d
// mod N under rsa-merkle, a detached Ed25519 signature otherwise.
// The payload is normally an unsigned digest (digest.Value).
func (k *PrivateKey) Sign(payload []byte) (Signature, error) {
	if k.counters != nil {
		k.counters.SignOps.Add(1)
	}
	if k.Scheme() == SchemeEd25519 {
		if k.ed == nil {
			return nil, errors.New("sig: ed25519 key has no private half")
		}
		return Signature(ed25519.Sign(k.ed, payload)), nil
	}
	em, err := pad(payload, k.Len())
	if err != nil {
		return nil, err
	}
	m := new(big.Int).SetBytes(em)
	c := k.crtExp(m)
	out := make(Signature, k.Len())
	c.FillBytes(out)
	return out, nil
}

// MustSign is Sign panicking on error, for contexts where the payload
// length is known valid.
func (k *PrivateKey) MustSign(payload []byte) Signature {
	s, err := k.Sign(payload)
	if err != nil {
		panic(err)
	}
	return s
}

// crtExp computes m^d mod N with the Chinese Remainder Theorem.
func (k *PrivateKey) crtExp(m *big.Int) *big.Int {
	m1 := new(big.Int).Exp(m, k.dp, k.p)
	m2 := new(big.Int).Exp(m, k.dq, k.q)
	h := new(big.Int).Sub(m1, m2)
	h.Mul(h, k.qinv)
	h.Mod(h, k.p)
	res := new(big.Int).Mul(h, k.q)
	res.Add(res, m2)
	return res
}

// Recover implements s⁻¹: it raises the signature to the public exponent,
// validates the padding structure, and returns the embedded payload. Any
// tampering with the signature bytes invalidates the padding with
// overwhelming probability and yields ErrBadSignature.
func (p *PublicKey) Recover(s Signature) ([]byte, error) {
	if p.Scheme == SchemeEd25519 {
		return nil, ErrNoRecovery
	}
	if p.Counters != nil {
		p.Counters.RecoverOps.Add(1)
	}
	if len(s) != p.Len() {
		return nil, ErrBadSignature
	}
	c := new(big.Int).SetBytes(s)
	if c.Cmp(p.N) >= 0 {
		return nil, ErrBadSignature
	}
	m := c.Exp(c, p.E, p.N)
	em := make([]byte, p.Len())
	m.FillBytes(em)
	payload, err := unpad(em)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(payload))
	copy(out, payload)
	return out, nil
}

// Verify checks that s authenticates want: under rsa-merkle it recovers
// the payload and compares; for Ed25519 it runs a detached verification.
// Both count one RecoverOp — the client-side Cost_s unit of §4.3.
func (p *PublicKey) Verify(s Signature, want []byte) error {
	if p.Scheme == SchemeEd25519 {
		if p.Counters != nil {
			p.Counters.RecoverOps.Add(1)
		}
		if p.Ed == nil || len(s) != ed25519.SignatureSize {
			return ErrBadSignature
		}
		if !ed25519.Verify(p.Ed, want, []byte(s)) {
			return ErrBadSignature
		}
		return nil
	}
	got, err := p.Recover(s)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return ErrBadSignature
	}
	return nil
}
