package verify

import (
	"errors"
	"testing"
	"time"

	"edgeauth/internal/sig"
	"edgeauth/internal/vo"
)

// freshLeafVO builds a valid single-leaf response over the hand tree.
func freshLeafVO(t *testing.T, h *handTree, ts int64, keyVersion uint32) (*vo.ResultSet, *vo.VO) {
	t.Helper()
	w := h.voAt(t, 1, h.node(1, h.uT...), record(2, 0, 2))
	w.KeyVersion, w.Timestamp = keyVersion, ts
	return h.rows(0, 1), w
}

// TestBackdatedVOResurrectsExpiredKeyOnlyUnderOldSemantics is the §3.4
// regression test: a compromised edge replays data signed under an
// expired key and backdates the VO timestamp into that key's validity
// window. The old client resolved key validity at the EDGE-supplied
// timestamp and accepted; the fixed client resolves at its own clock and
// rejects with ErrKeyVersion.
func TestBackdatedVOResurrectsExpiredKeyOnlyUnderOldSemantics(t *testing.T) {
	h := buildHand(t, []string{"a", "b"})

	// Key version 7: valid only during an ancient window.
	reg := sig.NewRegistry()
	old := h.key.Public()
	old.Version = 7
	old.NotBefore = 1_000
	old.NotAfter = 2_000
	reg.Put(old)

	// The attack: a response signed under v7, stamped inside v7's window.
	rs, w := freshLeafVO(t, h, 1_500, 7)

	// Old semantics (clock := the edge's timestamp): accepted. This is
	// what the pre-fix code did by passing VO.Timestamp to resolveKey.
	legacy := &Verifier{Keys: reg, Acc: h.acc, Schema: h.sch,
		Now: func() int64 { return w.Timestamp }}
	if err := legacy.Verify(rs, w); err != nil {
		t.Fatalf("sanity: the old trust-the-edge-clock semantics no longer accept the backdated VO: %v", err)
	}

	// Fixed semantics: the client's own clock says v7 is long expired.
	fixed := &Verifier{Keys: reg, Acc: h.acc, Schema: h.sch}
	if err := fixed.Verify(rs, w); !errors.Is(err, ErrKeyVersion) {
		t.Fatalf("backdated VO: %v, want ErrKeyVersion", err)
	}
}

// TestFreshnessWindow covers the skew bound in both directions and its
// configurability.
func TestFreshnessWindow(t *testing.T) {
	h := buildHand(t, []string{"a", "b"})
	now := time.Now().Unix()

	// Within the default window: accepted.
	rs, w := freshLeafVO(t, h, now-30, 0)
	if err := h.verifier().Verify(rs, w); err != nil {
		t.Fatalf("fresh VO rejected: %v", err)
	}

	// Backdated beyond the window: rejected even though the pinned key is
	// unbounded — staleness itself is the signal. Matches both sentinels:
	// ErrKeyVersion (the §3.4 class) and ErrFreshness (so clients skip
	// the key-refetch recovery that cannot repair a stale timestamp).
	rs, w = freshLeafVO(t, h, now-3600, 0)
	err := h.verifier().Verify(rs, w)
	if !errors.Is(err, ErrKeyVersion) || !errors.Is(err, ErrFreshness) {
		t.Fatalf("hour-old VO: %v, want ErrKeyVersion and ErrFreshness", err)
	}

	// Future-dated: rejected.
	rs, w = freshLeafVO(t, h, now+3600, 0)
	err = h.verifier().Verify(rs, w)
	if !errors.Is(err, ErrKeyVersion) || !errors.Is(err, ErrFreshness) {
		t.Fatalf("future VO: %v, want ErrKeyVersion and ErrFreshness", err)
	}

	// A genuine unknown-key failure is NOT a freshness failure.
	rs, w = freshLeafVO(t, h, now, 9)
	if err := h.verifier().Verify(rs, w); !errors.Is(err, ErrKeyVersion) || errors.Is(err, ErrFreshness) {
		t.Fatalf("unknown key version: %v, want ErrKeyVersion without ErrFreshness", err)
	}

	// A wider configured window admits the hour-old response.
	wide := &Verifier{Key: h.key.Public(), Acc: h.acc, Schema: h.sch, MaxClockSkew: 2 * time.Hour}
	rs, w = freshLeafVO(t, h, now-3600, 0)
	if err := wide.Verify(rs, w); err != nil {
		t.Fatalf("VO within widened skew rejected: %v", err)
	}

	// Negative disables the timestamp bound entirely.
	off := &Verifier{Key: h.key.Public(), Acc: h.acc, Schema: h.sch, MaxClockSkew: -1}
	rs, w = freshLeafVO(t, h, 12, 0)
	if err := off.Verify(rs, w); err != nil {
		t.Fatalf("VO with skew check disabled rejected: %v", err)
	}
}

// TestKeyValidityUsesClientClock: even with the timestamp bound disabled,
// an expired key cannot be resurrected, because validity is resolved at
// the client's clock.
func TestKeyValidityUsesClientClock(t *testing.T) {
	h := buildHand(t, []string{"a", "b"})
	expired := h.key.Public()
	expired.NotAfter = 2_000 // expired decades ago
	v := &Verifier{Key: expired, Acc: h.acc, Schema: h.sch, MaxClockSkew: -1}
	rs, w := freshLeafVO(t, h, 1_500, 0)
	if err := v.Verify(rs, w); !errors.Is(err, ErrKeyVersion) {
		t.Fatalf("expired key with skew disabled: %v, want ErrKeyVersion", err)
	}
}
