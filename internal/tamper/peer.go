package tamper

// Malicious-relay attacks for the peer distribution tier: mutations a
// compromised SERVING edge could apply to the replication payloads it
// relays to downstream edges (as opposed to the query-response attacks
// in tamper.go, which target clients). WrapPeer runs one on every
// payload a relay proxy serves, and the security test-suite drives them
// through real two-tier deployments to show that a peer-fed edge
// rejects every one and heals from the central.

import (
	"sync"

	"edgeauth/internal/wire"
)

// PeerAttack models a malicious relay peer. NewHook builds a fresh
// (possibly stateful) payload-rewriting hook: it receives the response
// frame type, the shard ref the payload answers and the encoded body,
// and returns the body to serve instead.
type PeerAttack struct {
	Name        string
	Description string
	NewHook     func() func(mt wire.MsgType, ref string, body []byte) []byte
}

// BitFlipDelta corrupts every relayed delta in transit — the classic
// on-path mutation. Deltas are whole-body signed by the central, so a
// single flipped bit anywhere in the body breaks the signature and the
// downstream edge rejects the payload before touching its replica.
func BitFlipDelta() PeerAttack {
	return PeerAttack{
		Name:        "bit-flip-delta",
		Description: "flip one bit in every relayed delta body",
		NewHook: func() func(wire.MsgType, string, []byte) []byte {
			return func(mt wire.MsgType, ref string, body []byte) []byte {
				if mt != wire.MsgDeltaResp || len(body) == 0 {
					return body
				}
				out := append([]byte(nil), body...)
				out[len(out)/2] ^= 0x01
				return out
			}
		},
	}
}

// ReplayStaleSnapshot freezes the peer's snapshot answers: the first
// body served per ref is captured and replayed forever after — a relay
// trying to wind a bootstrapping edge back to an old (but authentically
// signed) state. The downstream binds every peer snapshot to the exact
// epoch/version/root-digest its central-verified shard map pins, so the
// replay fails the pin check as soon as the table has moved on.
func ReplayStaleSnapshot() PeerAttack {
	return PeerAttack{
		Name:        "replay-stale-snapshot",
		Description: "serve a previously-captured snapshot instead of the current one",
		NewHook: func() func(wire.MsgType, string, []byte) []byte {
			var mu sync.Mutex
			first := make(map[string][]byte)
			return func(mt wire.MsgType, ref string, body []byte) []byte {
				if mt != wire.MsgSnapshotResp {
					return body
				}
				mu.Lock()
				defer mu.Unlock()
				if old, ok := first[ref]; ok {
					return old
				}
				first[ref] = append([]byte(nil), body...)
				return body
			}
		},
	}
}

// WrongShardRelay answers a request for one shard with another shard's
// (authentically signed) payload — set-confusion at the relay layer.
// Payloads are remembered per ref as they are served; once a second ref
// is seen, every answer is swapped for some OTHER ref's payload of the
// same frame type. A relayed delta names its shard ref inside the
// signed body, and a snapshot's root must recover to the requested
// shard's pinned digest, so the downstream rejects the swap either way.
func WrongShardRelay() PeerAttack {
	return PeerAttack{
		Name:        "wrong-shard-relay",
		Description: "answer one shard's request with another shard's signed payload",
		NewHook: func() func(wire.MsgType, string, []byte) []byte {
			var mu sync.Mutex
			seen := make(map[wire.MsgType]map[string][]byte)
			return func(mt wire.MsgType, ref string, body []byte) []byte {
				if mt != wire.MsgDeltaResp && mt != wire.MsgSnapshotResp {
					return body
				}
				mu.Lock()
				defer mu.Unlock()
				byRef := seen[mt]
				if byRef == nil {
					byRef = make(map[string][]byte)
					seen[mt] = byRef
				}
				byRef[ref] = append([]byte(nil), body...)
				for other, b := range byRef {
					if other != ref {
						return b
					}
				}
				return body
			}
		},
	}
}

// PeerAttacks returns the malicious-relay catalogue.
func PeerAttacks() []PeerAttack {
	return []PeerAttack{
		BitFlipDelta(),
		ReplayStaleSnapshot(),
		WrongShardRelay(),
	}
}
