package sig

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
)

// Wire format of a public key:
//
//	u32 version | i64 notBefore | i64 notAfter | u32 0 | u8 scheme |
//	  scheme == rsa-merkle: u32 len(N) | N bytes | u32 len(E) | E bytes
//	  scheme == ed25519:    u32 32     | pubkey bytes
//
// The zero word marks the scheme tag. Keys of the retired per-node rsa
// scheme had no tag (their modulus length stood in its place) and named
// scheme 0; both are refused.
//
// Big-endian throughout, matching the rest of the repository's codecs.

// MarshalBinary encodes the public key for distribution to clients.
func (p *PublicKey) MarshalBinary() ([]byte, error) {
	var b8 [8]byte
	var b4 [4]byte
	out := make([]byte, 0, 4+8+8+4+1+4+ed25519.PublicKeySize)
	binary.BigEndian.PutUint32(b4[:], p.Version)
	out = append(out, b4[:]...)
	binary.BigEndian.PutUint64(b8[:], uint64(p.NotBefore))
	out = append(out, b8[:]...)
	binary.BigEndian.PutUint64(b8[:], uint64(p.NotAfter))
	out = append(out, b8[:]...)
	appendBig := func(v *big.Int) {
		vb := v.Bytes()
		binary.BigEndian.PutUint32(b4[:], uint32(len(vb)))
		out = append(out, b4[:]...)
		out = append(out, vb...)
	}
	switch p.Scheme {
	case SchemeRSAMerkle:
		if p.N == nil || p.E == nil {
			return nil, errors.New("sig: cannot marshal incomplete public key")
		}
		out = append(out, 0, 0, 0, 0, byte(p.Scheme))
		appendBig(p.N)
		appendBig(p.E)
	case SchemeEd25519:
		if len(p.Ed) != ed25519.PublicKeySize {
			return nil, errors.New("sig: cannot marshal incomplete public key")
		}
		out = append(out, 0, 0, 0, 0, byte(p.Scheme))
		binary.BigEndian.PutUint32(b4[:], uint32(len(p.Ed)))
		out = append(out, b4[:]...)
		out = append(out, p.Ed...)
	default:
		return nil, fmt.Errorf("sig: cannot marshal key with unknown scheme %v", p.Scheme)
	}
	return out, nil
}

// UnmarshalBinary decodes a public key produced by MarshalBinary. Blobs
// naming a scheme this build does not know are rejected — a client must
// never guess at a verification algorithm.
func (p *PublicKey) UnmarshalBinary(data []byte) error {
	const fixed = 4 + 8 + 8
	if len(data) < fixed+5 {
		return errors.New("sig: public key blob truncated")
	}
	version := binary.BigEndian.Uint32(data[0:4])
	notBefore := int64(binary.BigEndian.Uint64(data[4:12]))
	notAfter := int64(binary.BigEndian.Uint64(data[12:20]))
	off := fixed
	readBig := func() (*big.Int, error) {
		if off+4 > len(data) {
			return nil, errors.New("sig: public key blob truncated")
		}
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		off += 4
		if n < 0 || off+n > len(data) {
			return nil, errors.New("sig: public key blob truncated")
		}
		v := new(big.Int).SetBytes(data[off : off+n])
		off += n
		return v, nil
	}
	if binary.BigEndian.Uint32(data[off:off+4]) != 0 {
		return errors.New("sig: public key blob has no scheme tag")
	}
	scheme := Scheme(data[off+4])
	off += 5
	if !scheme.Valid() {
		return fmt.Errorf("sig: public key blob names unknown scheme %d", uint8(scheme))
	}
	decoded := PublicKey{
		Scheme:    scheme,
		Version:   version,
		NotBefore: notBefore,
		NotAfter:  notAfter,
		Counters:  p.Counters,
	}
	switch scheme {
	case SchemeRSAMerkle:
		n, err := readBig()
		if err != nil {
			return err
		}
		e, err := readBig()
		if err != nil {
			return err
		}
		if n.BitLen() < MinBits {
			return fmt.Errorf("sig: unmarshaled modulus too small (%d bits)", n.BitLen())
		}
		if e.Sign() <= 0 {
			return errors.New("sig: unmarshaled exponent not positive")
		}
		decoded.N, decoded.E = n, e
	case SchemeEd25519:
		if off+4 > len(data) {
			return errors.New("sig: public key blob truncated")
		}
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		off += 4
		if n != ed25519.PublicKeySize || off+n > len(data) {
			return errors.New("sig: malformed ed25519 public key blob")
		}
		decoded.Ed = ed25519.PublicKey(append([]byte(nil), data[off:off+n]...))
		off += n
	}
	if off != len(data) {
		return fmt.Errorf("sig: %d trailing bytes in public key blob", len(data)-off)
	}
	*p = decoded
	return nil
}
