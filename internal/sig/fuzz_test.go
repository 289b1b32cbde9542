package sig

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalPublicKey runs the key-blob decoder an edge and a client
// run on the central's PubKeyResp, and vbgen on a database's stored key,
// over any bytes. It must never panic, and a blob it accepts must
// re-encode byte for byte: one key, one encoding.
func FuzzUnmarshalPublicKey(f *testing.F) {
	for _, scheme := range []Scheme{SchemeRSAMerkle, SchemeEd25519} {
		blob, err := MustGenerate(scheme, testKeyBits).Public().MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		var pk PublicKey
		if pk.UnmarshalBinary(blob) != nil {
			return
		}
		out, err := pk.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted blob does not re-encode: %v", err)
		}
		if !bytes.Equal(out, blob) {
			t.Fatalf("key blob accepted and re-encoded differently:\n read %x\n  out %x", blob, out)
		}
	})
}
