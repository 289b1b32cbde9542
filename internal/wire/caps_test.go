package wire

import (
	"errors"
	"testing"
)

func TestHelloCapsRoundTrip(t *testing.T) {
	v, caps, err := DecodeHelloCaps(EncodeHelloCaps(ProtocolVersion, CapPeerServe))
	if err != nil || v != ProtocolVersion || caps != CapPeerServe {
		t.Fatalf("round trip: v=%d caps=%#x err=%v", v, caps, err)
	}
	// The capability word is mandatory: a bare 4-byte version is rejected.
	if _, _, err := DecodeHelloCaps(appendU32(nil, ProtocolVersion)); err == nil {
		t.Fatal("4-byte hello accepted")
	}
	if _, _, err := DecodeHelloCaps(append(EncodeHelloCaps(ProtocolVersion, 0), 0)); err == nil {
		t.Fatal("hello with trailing bytes accepted")
	}
	if _, _, err := DecodeHelloCaps([]byte{1, 2}); err == nil {
		t.Fatal("truncated hello accepted")
	}
	if _, _, err := DecodeHelloCaps(EncodeHelloCaps(0, 0)); err == nil {
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
