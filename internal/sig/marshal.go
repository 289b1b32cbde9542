package sig

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/big"

	"edgeauth/internal/codec"
)

// Wire format of a public key:
//
//	u32 version | i64 notBefore | i64 notAfter | u32 0 | u8 scheme |
//	  scheme == rsa-merkle: u32 len(N) | N bytes | u32 len(E) | E bytes
//	  scheme == ed25519:    u32 32     | pubkey bytes
//
// The zero word marks the scheme tag. Keys of the retired per-node rsa
// scheme had no tag (their modulus length stood in its place) and named
// scheme 0; both are refused. The primitives are package codec's.

// MarshalBinary encodes the public key for distribution to clients.
func (p *PublicKey) MarshalBinary() ([]byte, error) {
	switch p.Scheme {
	case SchemeRSAMerkle:
		if p.N == nil || p.E == nil {
			return nil, errors.New("sig: cannot marshal incomplete public key")
		}
	case SchemeEd25519:
		if len(p.Ed) != ed25519.PublicKeySize {
			return nil, errors.New("sig: cannot marshal incomplete public key")
		}
	default:
		return nil, fmt.Errorf("sig: cannot marshal key with unknown scheme %v", p.Scheme)
	}
	out := codec.AppendU32(make([]byte, 0, 4+8+8+4+1+4+ed25519.PublicKeySize), p.Version)
	out = codec.AppendU64(out, uint64(p.NotBefore))
	out = codec.AppendU64(out, uint64(p.NotAfter))
	out = codec.AppendU8(codec.AppendU32(out, 0), uint8(p.Scheme))
	if p.Scheme == SchemeEd25519 {
		return codec.AppendBytes(out, p.Ed), nil
	}
	out = codec.AppendBytes(out, p.N.Bytes())
	return codec.AppendBytes(out, p.E.Bytes()), nil
}

// UnmarshalBinary decodes a public key produced by MarshalBinary. Blobs
// naming a scheme this build does not know are rejected — a client must
// never guess at a verification algorithm — and so is an RSA modulus or
// exponent with a leading zero byte, which MarshalBinary never writes: an
// accepted blob re-encodes as it came.
func (p *PublicKey) UnmarshalBinary(data []byte) error {
	r := codec.NewReader("sig", data)
	decoded := PublicKey{
		Version:   r.U32("key version"),
		NotBefore: int64(r.U64("not-before")),
		NotAfter:  int64(r.U64("not-after")),
		Counters:  p.Counters,
	}
	tag := r.U32("scheme tag")
	decoded.Scheme = Scheme(r.U8("scheme"))
	if err := r.Err(); err != nil {
		return err
	}
	if tag != 0 {
		return errors.New("sig: public key blob has no scheme tag")
	}
	switch decoded.Scheme {
	case SchemeRSAMerkle:
		n, e := r.View("modulus"), r.View("exponent")
		if err := r.Done(); err != nil {
			return err
		}
		if len(n) > 0 && n[0] == 0 || len(e) > 0 && e[0] == 0 {
			return errors.New("sig: modulus or exponent has a leading zero byte")
		}
		decoded.N, decoded.E = new(big.Int).SetBytes(n), new(big.Int).SetBytes(e)
		if decoded.N.BitLen() < MinBits {
			return fmt.Errorf("sig: unmarshaled modulus too small (%d bits)", decoded.N.BitLen())
		}
		if decoded.E.Sign() <= 0 {
			return errors.New("sig: unmarshaled exponent not positive")
		}
	case SchemeEd25519:
		ed := r.View("ed25519 key")
		if err := r.Done(); err != nil {
			return err
		}
		if len(ed) != ed25519.PublicKeySize {
			return errors.New("sig: malformed ed25519 public key blob")
		}
		decoded.Ed = ed25519.PublicKey(append([]byte(nil), ed...))
	default:
		return fmt.Errorf("sig: public key blob names unknown scheme %d", uint8(decoded.Scheme))
	}
	*p = decoded
	return nil
}
