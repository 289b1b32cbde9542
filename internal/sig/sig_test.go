package sig

import (
	"bytes"
	"math/big"
	"sync"
	"testing"
	"testing/quick"

	"edgeauth/internal/digest"
)

// testKeyBits keeps unit tests fast; the padding and algebra are size-
// independent.
const testKeyBits = 512

var (
	keyOnce sync.Once
	key     *PrivateKey
)

func testKey(t testing.TB) *PrivateKey {
	t.Helper()
	keyOnce.Do(func() { key = MustGenerate(SchemeRSAMerkle, testKeyBits) })
	return key
}

func TestGenerateKeyValidation(t *testing.T) {
	if _, err := Generate(SchemeRSAMerkle, 64); err == nil {
		t.Fatal("Generate accepted a 64-bit modulus")
	}
	k := testKey(t)
	if got := k.Len(); got != testKeyBits/8 {
		t.Fatalf("Len = %d, want %d", got, testKeyBits/8)
	}
	if k.Public().N.BitLen() != testKeyBits {
		t.Fatalf("modulus bit length %d, want %d", k.Public().N.BitLen(), testKeyBits)
	}
}

func TestSignRecoverRoundTrip(t *testing.T) {
	k := testKey(t)
	pub := k.Public()
	payloads := [][]byte{
		{},
		{0x00},
		{0xFF},
		[]byte("sixteen-byte-pay"),
		bytes.Repeat([]byte{0xAB}, 16),
		bytes.Repeat([]byte{0x00}, 16), // leading zeros must survive
	}
	for i, p := range payloads {
		s, err := k.Sign(p)
		if err != nil {
			t.Fatalf("payload %d: Sign: %v", i, err)
		}
		if len(s) != k.Len() {
			t.Fatalf("payload %d: signature length %d, want %d", i, len(s), k.Len())
		}
		got, err := pub.Recover(s)
		if err != nil {
			t.Fatalf("payload %d: Recover: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("payload %d: recovered %x, want %x", i, got, p)
		}
	}
}

func TestSignDeterministic(t *testing.T) {
	k := testKey(t)
	p := []byte("determinism-check")
	s1 := k.MustSign(p)
	s2 := k.MustSign(p)
	if !s1.Equal(s2) {
		t.Fatal("signing the same payload twice produced different signatures")
	}
}

func TestRecoverRejectsTampering(t *testing.T) {
	k := testKey(t)
	pub := k.Public()
	s := k.MustSign([]byte("authentic digest"))

	t.Run("flipped byte", func(t *testing.T) {
		bad := s.Clone()
		bad[len(bad)/2] ^= 0x01
		if got, err := pub.Recover(bad); err == nil {
			// Structural padding check makes survival overwhelmingly
			// unlikely; if it ever recovers, it must not equal the original.
			if bytes.Equal(got, []byte("authentic digest")) {
				t.Fatal("tampered signature recovered the original payload")
			}
		}
	})
	t.Run("wrong length", func(t *testing.T) {
		if _, err := pub.Recover(s[:len(s)-1]); err == nil {
			t.Fatal("short signature accepted")
		}
	})
	t.Run("value >= N", func(t *testing.T) {
		bad := make(Signature, pub.Len())
		pub.N.FillBytes(bad)
		if _, err := pub.Recover(bad); err == nil {
			t.Fatal("signature value >= N accepted")
		}
	})
	t.Run("zero signature", func(t *testing.T) {
		if _, err := pub.Recover(make(Signature, pub.Len())); err == nil {
			t.Fatal("all-zero signature accepted")
		}
	})
}

func TestVerify(t *testing.T) {
	k := testKey(t)
	pub := k.Public()
	payload := []byte("verify me")
	s := k.MustSign(payload)
	if err := pub.Verify(s, payload); err != nil {
		t.Fatalf("Verify rejected a valid signature: %v", err)
	}
	if err := pub.Verify(s, []byte("something else")); err == nil {
		t.Fatal("Verify accepted a mismatched payload")
	}
}

func TestPayloadTooLong(t *testing.T) {
	k := testKey(t)
	if _, err := k.Sign(make([]byte, k.Len()-10)); err == nil {
		t.Fatal("Sign accepted a payload that cannot be padded")
	}
}

func TestSignRecoverQuick(t *testing.T) {
	k := testKey(t)
	pub := k.Public()
	f := func(payload []byte) bool {
		if len(payload) > k.Len()-11 {
			payload = payload[:k.Len()-11]
		}
		s, err := k.Sign(payload)
		if err != nil {
			return false
		}
		got, err := pub.Recover(s)
		if err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverCountsOps(t *testing.T) {
	k := testKey(t)
	pub := k.Public()
	var c digest.Counters
	pub.Counters = &c
	s := k.MustSign([]byte("count me"))
	for i := 0; i < 3; i++ {
		if _, err := pub.Recover(s); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Snapshot().RecoverOps; got != 3 {
		t.Fatalf("RecoverOps = %d, want 3", got)
	}
}

func TestValidityWindow(t *testing.T) {
	k := testKey(t)
	k.SetValidity(7, 100, 200)
	pub := k.Public()
	if pub.Version != 7 {
		t.Fatalf("Version = %d, want 7", pub.Version)
	}
	for _, c := range []struct {
		at   int64
		want bool
	}{{50, false}, {100, true}, {150, true}, {200, true}, {201, false}} {
		if got := pub.ValidAt(c.at); got != c.want {
			t.Errorf("ValidAt(%d) = %v, want %v", c.at, got, c.want)
		}
	}
	unbounded := &PublicKey{N: pub.N, E: pub.E}
	if !unbounded.ValidAt(1) || !unbounded.ValidAt(1<<60) {
		t.Error("zero validity window should be unbounded")
	}
}

func TestPublicKeyMarshalRoundTrip(t *testing.T) {
	k := testKey(t)
	k.SetValidity(3, 1000, 2000)
	pub := k.Public()
	blob, err := pub.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got PublicKey
	if err := got.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if got.N.Cmp(pub.N) != 0 || got.E.Cmp(pub.E) != 0 {
		t.Fatal("modulus/exponent did not round-trip")
	}
	if got.Version != 3 || got.NotBefore != 1000 || got.NotAfter != 2000 {
		t.Fatalf("metadata did not round-trip: %+v", got)
	}
	// A key recovered from the wire must verify signatures.
	s := k.MustSign([]byte("wire"))
	if err := got.Verify(s, []byte("wire")); err != nil {
		t.Fatalf("unmarshaled key failed to verify: %v", err)
	}
}

func TestPublicKeyUnmarshalRejectsCorrupt(t *testing.T) {
	k := testKey(t)
	blob, _ := k.Public().MarshalBinary()
	cases := map[string][]byte{
		"empty":     {},
		"truncated": blob[:10],
		"cut N":     blob[:25],
		"trailing":  append(append([]byte{}, blob...), 0xAA),
	}
	for name, b := range cases {
		t.Run(name, func(t *testing.T) {
			var pk PublicKey
			if err := pk.UnmarshalBinary(b); err == nil {
				t.Fatal("corrupt blob accepted")
			}
		})
	}
}

func TestMarshalIncompleteKey(t *testing.T) {
	for _, pk := range []PublicKey{{}, {Scheme: SchemeRSAMerkle}, {Scheme: SchemeEd25519}} {
		if _, err := pk.MarshalBinary(); err == nil {
			t.Fatalf("marshaled an incomplete %v key", pk.Scheme)
		}
	}
}

func TestRegistryResolve(t *testing.T) {
	r := NewRegistry()
	k1 := testKey(t)
	pub1 := k1.Public()
	pub1.Version = 1
	pub1.NotBefore, pub1.NotAfter = 0, 1000
	pub2 := k1.Public()
	pub2.Version = 2
	pub2.NotBefore, pub2.NotAfter = 1000, 0
	r.Put(pub1)
	r.Put(pub2)

	if _, err := r.Resolve(1, 500); err != nil {
		t.Errorf("version 1 at t=500 should resolve: %v", err)
	}
	if _, err := r.Resolve(1, 2000); err == nil {
		t.Error("expired key version resolved")
	}
	if _, err := r.Resolve(2, 2000); err != nil {
		t.Errorf("version 2 at t=2000 should resolve: %v", err)
	}
	if _, err := r.Resolve(9, 500); err == nil {
		t.Error("unknown version resolved")
	}
	if got := len(r.Versions()); got != 2 {
		t.Errorf("Versions count = %d, want 2", got)
	}
	if _, ok := r.Get(2); !ok {
		t.Error("Get(2) missed")
	}
}

func TestUnmarshalRejectsWeakKey(t *testing.T) {
	weak := &PublicKey{N: big.NewInt(12345677), E: big.NewInt(3), Scheme: SchemeRSAMerkle}
	blob, err := weak.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var pk PublicKey
	if err := pk.UnmarshalBinary(blob); err == nil {
		t.Fatal("unmarshal accepted a 24-bit modulus")
	}
}

func BenchmarkSign(b *testing.B) {
	k := testKey(b)
	payload := bytes.Repeat([]byte{0x5A}, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := k.Sign(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecover(b *testing.B) {
	k := testKey(b)
	pub := k.Public()
	s := k.MustSign(bytes.Repeat([]byte{0x5A}, 16))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pub.Recover(s); err != nil {
			b.Fatal(err)
		}
	}
}
