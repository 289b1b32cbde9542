package sig

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
)

// Scheme identifies a key's signature scheme. Both commit to a VB-tree
// the same way — by ordered hashes, with one signature over each root —
// and differ only in the signer. It travels as key metadata: clients
// resolve a VO's KeyVersion through the trusted key registry and derive
// the verification algorithm from the resolved key's scheme, never from
// attacker-controllable wire bytes (the cross-scheme-confusion attack
// fails precisely because of this). The zero value names no scheme and
// is refused wherever a scheme travels.
type Scheme uint8

const (
	// SchemeRSAMerkle signs each tree root with RSA, whose signature
	// carries the root digest (message recovery).
	SchemeRSAMerkle Scheme = iota + 1
	// SchemeEd25519 signs each tree root with Ed25519. Ed25519 has no
	// message recovery, so the root digest is carried in the clear and
	// the signature is verified detached.
	SchemeEd25519
)

// Valid reports whether s names a known scheme.
func (s Scheme) Valid() bool { return s == SchemeRSAMerkle || s == SchemeEd25519 }

func (s Scheme) String() string {
	switch s {
	case SchemeRSAMerkle:
		return "rsa-merkle"
	case SchemeEd25519:
		return "ed25519"
	default:
		return fmt.Sprintf("Scheme(%d)", uint8(s))
	}
}

// ParseScheme resolves a scheme name as exposed by the -scheme flags of
// centrald and vbgen.
func ParseScheme(name string) (Scheme, error) {
	switch name {
	case "rsa-merkle", "merkle":
		return SchemeRSAMerkle, nil
	case "ed25519":
		return SchemeEd25519, nil
	default:
		return 0, fmt.Errorf("sig: unknown scheme %q (want rsa-merkle or ed25519)", name)
	}
}

// Signer is the signing surface the central server and the VB-tree
// depend on. *PrivateKey implements it for every scheme; the locksign
// analyzer flags ANY implementation's Sign/MustSign under shard locks.
type Signer interface {
	Sign(payload []byte) (Signature, error)
	MustSign(payload []byte) Signature
	Public() *PublicKey
	Len() int
	Scheme() Scheme
}

var _ Signer = (*PrivateKey)(nil)

// Generate creates a fresh key pair for the given scheme. bits sizes the
// RSA modulus and is ignored for Ed25519 (fixed 256-bit curve keys).
func Generate(scheme Scheme, bits int) (*PrivateKey, error) {
	switch scheme {
	case SchemeRSAMerkle:
		return generateRSA(bits)
	case SchemeEd25519:
		edPub, edPriv, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("sig: generating ed25519 key: %w", err)
		}
		return &PrivateKey{
			pub: PublicKey{Scheme: SchemeEd25519, Ed: edPub},
			ed:  edPriv,
		}, nil
	default:
		return nil, fmt.Errorf("sig: cannot generate key for unknown scheme %v", scheme)
	}
}

// MustGenerate is Generate panicking on error, for tests and tools.
func MustGenerate(scheme Scheme, bits int) *PrivateKey {
	k, err := Generate(scheme, bits)
	if err != nil {
		panic(err)
	}
	return k
}
