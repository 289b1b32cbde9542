package sig

import (
	"bytes"
	"testing"
	"testing/quick"
)

// TestSchemeMarshalRoundTrip pins the wire format across every scheme
// and a spread of versions/validity windows: marshal → unmarshal must
// reproduce the key, and the decoded key must verify signatures minted
// by the original private key.
func TestSchemeMarshalRoundTrip(t *testing.T) {
	payload := []byte("round-trip payload")
	for _, scheme := range []Scheme{SchemeRSAMerkle, SchemeEd25519} {
		t.Run(scheme.String(), func(t *testing.T) {
			for _, version := range []uint32{0, 1, 7, 1 << 20} {
				k := MustGenerate(scheme, 512)
				k.SetValidity(version, 100, 1<<40)
				blob, err := k.Public().MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				var got PublicKey
				if err := got.UnmarshalBinary(blob); err != nil {
					t.Fatalf("version %d: unmarshal: %v", version, err)
				}
				if got.Scheme != scheme {
					t.Fatalf("scheme round-tripped as %v, want %v", got.Scheme, scheme)
				}
				if got.Version != version || got.NotBefore != 100 || got.NotAfter != 1<<40 {
					t.Fatalf("metadata mangled: %+v", got)
				}
				sg := k.MustSign(payload)
				if err := got.Verify(sg, payload); err != nil {
					t.Fatalf("decoded key rejects a genuine signature: %v", err)
				}
				// And a second encode of the decoded key is byte-identical.
				blob2, err := got.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(blob, blob2) {
					t.Fatal("re-encoding a decoded key changed bytes")
				}
			}
		})
	}
}

// TestRSAFullLayoutIsLegacy: the layout keys of the retired per-node rsa
// scheme were written in — no scheme tag, the modulus length where the
// tag's zero word stands — is refused, as is that scheme's number, 0,
// behind a tag. Only the tagged layout of a known scheme decodes.
func TestRSAFullLayoutIsLegacy(t *testing.T) {
	k := MustGenerate(SchemeRSAMerkle, 512)
	blob, err := k.Public().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Tagged layout: bytes 20..24 are the zero word, byte 24 the scheme.
	if !bytes.Equal(blob[20:24], []byte{0, 0, 0, 0}) || Scheme(blob[24]) != SchemeRSAMerkle {
		t.Fatalf("rsa-merkle key encoded without its tag: % x", blob[20:25])
	}
	legacy := append(append([]byte(nil), blob[:20]...), blob[25:]...)
	var got PublicKey
	if err := got.UnmarshalBinary(legacy); err == nil {
		t.Fatal("an untagged (per-node rsa) key blob was accepted")
	}
	zero := append([]byte(nil), blob...)
	zero[24] = 0
	if err := got.UnmarshalBinary(zero); err == nil {
		t.Fatal("a key blob naming scheme 0 was accepted")
	}
	if err := got.UnmarshalBinary(blob); err != nil || got.Scheme != SchemeRSAMerkle || got.N.Cmp(k.Public().N) != 0 {
		t.Fatalf("tagged key: scheme %v, %v", got.Scheme, err)
	}
}

// TestUnmarshalRejectsUnknownScheme: a blob naming a scheme byte this
// build does not know must be rejected, never guessed at.
func TestUnmarshalRejectsUnknownScheme(t *testing.T) {
	k := MustGenerate(SchemeEd25519, 0)
	blob, err := k.Public().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The scheme byte sits right after the 4-byte zero marker at offset 20.
	for _, b := range []byte{0, 3, 77, 255} {
		bad := append([]byte(nil), blob...)
		bad[24] = b
		var got PublicKey
		if err := got.UnmarshalBinary(bad); err == nil {
			t.Fatalf("scheme byte %d accepted", b)
		}
	}
}

// TestUnmarshalTruncatedSchemeTagged walks every prefix of a
// scheme-tagged blob through the decoder: none may panic or succeed.
func TestUnmarshalTruncatedSchemeTagged(t *testing.T) {
	for _, scheme := range []Scheme{SchemeRSAMerkle, SchemeEd25519} {
		k := MustGenerate(scheme, 512)
		blob, err := k.Public().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(blob); n++ {
			var got PublicKey
			if err := got.UnmarshalBinary(blob[:n]); err == nil {
				t.Fatalf("%v: truncation to %d bytes accepted", scheme, n)
			}
		}
	}
}

// TestRegistryMixedSchemes: one registry holding RSA and Ed25519 keys
// under different versions resolves each to the right scheme — the
// rotation path a central switching signers mid-deployment exercises.
func TestRegistryMixedSchemes(t *testing.T) {
	rsa := MustGenerate(SchemeRSAMerkle, 512)
	rsa.SetValidity(1, 0, 1<<40)
	ed := MustGenerate(SchemeEd25519, 0)
	ed.SetValidity(2, 0, 1<<40)
	reg := NewRegistry()
	reg.Put(rsa.Public())
	reg.Put(ed.Public())
	payload := []byte("mixed registry payload")
	for _, tc := range []struct {
		version uint32
		key     *PrivateKey
		scheme  Scheme
	}{{1, rsa, SchemeRSAMerkle}, {2, ed, SchemeEd25519}} {
		pub, err := reg.Resolve(tc.version, 50)
		if err != nil {
			t.Fatalf("resolve v%d: %v", tc.version, err)
		}
		if pub.Scheme != tc.scheme {
			t.Fatalf("v%d resolved to scheme %v, want %v", tc.version, pub.Scheme, tc.scheme)
		}
		if err := pub.Verify(tc.key.MustSign(payload), payload); err != nil {
			t.Fatalf("v%d: %v", tc.version, err)
		}
		// Cross-wiring must fail: the other key's signature never verifies.
		other := rsa
		if tc.key == rsa {
			other = ed
		}
		if err := pub.Verify(other.MustSign(payload), payload); err == nil {
			t.Fatalf("v%d accepted a signature from the other scheme's key", tc.version)
		}
	}
}

// TestEd25519SignVerifyQuick drives random payloads through the
// detached-signature path.
func TestEd25519SignVerifyQuick(t *testing.T) {
	k := MustGenerate(SchemeEd25519, 0)
	pub := k.Public()
	f := func(payload []byte) bool {
		sg, err := k.Sign(payload)
		if err != nil {
			return false
		}
		if len(sg) != pub.Len() {
			return false
		}
		if err := pub.Verify(sg, payload); err != nil {
			return false
		}
		// Any bit flip must invalidate it.
		bad := sg.Clone()
		bad[0] ^= 1
		return pub.Verify(bad, payload) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestParseSchemeNames pins the flag vocabulary shared by centrald,
// vbgen and bench.
func TestParseSchemeNames(t *testing.T) {
	for name, want := range map[string]Scheme{
		"rsa-merkle": SchemeRSAMerkle,
		"merkle":     SchemeRSAMerkle,
		"ed25519":    SchemeEd25519,
	} {
		got, err := ParseScheme(name)
		if err != nil || got != want {
			t.Fatalf("ParseScheme(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	// The retired per-node scheme's names are unknown now.
	for _, name := range []string{"dsa", "rsa", "rsa-full", ""} {
		if _, err := ParseScheme(name); err == nil {
			t.Fatalf("scheme name %q accepted", name)
		}
	}
	if Scheme(0).Valid() {
		t.Fatal("scheme 0 is valid")
	}
	for _, s := range []Scheme{SchemeRSAMerkle, SchemeEd25519} {
		back, err := ParseScheme(s.String())
		if err != nil || back != s {
			t.Fatalf("String/Parse not inverse for %v", s)
		}
	}
}
