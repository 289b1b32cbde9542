package wire

import (
	"errors"
	"testing"
)

// TestHelloCapsRoundTrip: a Hello body is the version word alone. The
// protocol-9 body — a version word and a capability word — is refused,
// as are a truncated body and version 0.
func TestHelloCapsRoundTrip(t *testing.T) {
	if v, err := DecodeHello(EncodeHello(ProtocolVersion)); err != nil || v != ProtocolVersion {
		t.Fatalf("round trip: v=%d err=%v", v, err)
	}
	if got := EncodeHello(ProtocolVersion); len(got) != 4 {
		t.Fatalf("a Hello body is %d bytes, want 4", len(got))
	}
	if _, err := DecodeHello([]byte{0, 0, 0, 9, 0, 0, 0, 1}); err == nil {
		t.Fatal("8-byte protocol-9 hello accepted")
	}
	if _, err := DecodeHello([]byte{1, 2}); err == nil {
		t.Fatal("truncated hello accepted")
	}
	if _, err := DecodeHello(EncodeHello(0)); err == nil {
		t.Fatal("version 0 accepted")
	}
}

func TestPeerTierErrorCodes(t *testing.T) {
	cases := []*WireError{
		Behind("items", "edge: requester at v7, peer replica head at v7"),
		DeltaGap("items", "edge: no relayable delta from v2"),
	}
	sentinels := []error{ErrBehind, ErrDeltaGap}
	for i, we := range cases {
		got := DecodeWireError(we.Encode())
		if got.Code != we.Code || got.Table != we.Table || got.Msg != we.Msg {
			t.Fatalf("case %d: %+v decoded to %+v", i, we, got)
		}
		if !errors.Is(got, sentinels[i]) {
			t.Fatalf("case %d does not match its sentinel", i)
		}
		for j, s := range sentinels {
			if i != j && errors.Is(got, s) {
				t.Fatalf("case %d matched foreign sentinel %v", i, s)
			}
		}
		// Neither failover code is mistakable for the retryable or
		// staleness families the refresh loop also dispatches on.
		for _, s := range []error{ErrStaleReplica, ErrUnsupported, ErrUnknownTable} {
			if errors.Is(got, s) {
				t.Fatalf("case %d matched %v", i, s)
			}
		}
	}
	if CodeBehind.String() != "behind" || CodeDeltaGap.String() != "delta-gap" {
		t.Fatalf("code strings: %q, %q", CodeBehind.String(), CodeDeltaGap.String())
	}
}
