// Package peer is the edge-to-edge distribution tier: the pieces an
// edge needs to pull its refresh traffic from other edges instead of
// the central server, and to relay that traffic onward.
//
// The tier adds no trust. Every payload an edge will install is
// central-signed — deltas are whole-body signed, snapshots anchor to
// the root digest the central-signed shard map pins — so WHO carried
// the bytes is irrelevant to integrity: a peer is just a cache. The
// trust anchors (the signed shard map and the central public key) are
// always fetched from the central directly, because only the central
// can vouch for freshness; peers carry the bulk. That split is the CDN
// economics: central egress becomes O(small maps × edges + bulk ×
// tier-1 peers) instead of O(bulk × edges).
//
// A Source is one configured upstream with health scoring: consecutive
// failures back it off exponentially so a dead or stale peer is skipped
// (not re-dialed) on every refresh tick, and one success heals it. A
// Set is the ordered upstream list the refresh loop walks before
// falling back to the central. A Cache holds the raw signed delta
// bodies an edge pulled and verified, so it can relay them verbatim to
// downstream edges — re-encoding would break the whole-body signature,
// relaying bytes preserves it.
package peer

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"edgeauth/internal/rpc"
)

// Backoff bounds for an unhealthy source: the first failure waits
// baseBackoff before the source is retried, doubling per consecutive
// failure up to maxBackoff.
const (
	baseBackoff = 500 * time.Millisecond
	maxBackoff  = 30 * time.Second
)

// Source is one upstream peer edge. It owns the connections to it
// (one rpc.Conn) and the health state deciding whether the refresh loop should try it.
type Source struct {
	addr string
	conn *rpc.Conn

	mu      sync.Mutex
	fails   int       // consecutive failures
	retryAt time.Time // next time the source may be tried

	// Counters for the per-source expvar surface.
	payloads atomic.Uint64 // payloads successfully pulled from this source
	bytes    atomic.Uint64 // payload bytes pulled from this source
	failures atomic.Uint64 // lifetime failures (transport, stale, reject)
}

// NewSource builds a source dialing addr lazily.
func NewSource(addr string) *Source {
	return &Source{addr: addr, conn: rpc.New(addr, rpc.Options{})}
}

// Addr reports the upstream's address.
func (s *Source) Addr() string { return s.addr }

// Conn returns the connections to the upstream.
func (s *Source) Conn() *rpc.Conn { return s.conn }

// Available reports whether the source should be tried now: healthy, or
// past its backoff window.
func (s *Source) Available(now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fails == 0 || !now.Before(s.retryAt)
}

// ReportSuccess records a verified payload pulled from this source and
// heals its health score.
func (s *Source) ReportSuccess(payloadBytes int) {
	s.payloads.Add(1)
	s.bytes.Add(uint64(payloadBytes))
	s.mu.Lock()
	s.fails = 0
	s.mu.Unlock()
}

// ReportFailure records a failed attempt (unreachable, stale, or a
// payload that did not verify) and extends the backoff window.
func (s *Source) ReportFailure(now time.Time) {
	s.failures.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fails++
	backoff := baseBackoff << (s.fails - 1)
	if s.fails > 6 || backoff > maxBackoff {
		backoff = maxBackoff
	}
	s.retryAt = now.Add(backoff)
}

// Close tears down the upstream connection.
func (s *Source) Close() error { return s.conn.Close() }

// SourceStats is a point-in-time snapshot of one source's counters. The
// JSON field names are the expvar keys.
type SourceStats struct {
	Addr            string `json:"addr"`
	PayloadsPulled  uint64 `json:"payloads_pulled"`
	BytesPulled     uint64 `json:"bytes_pulled"`
	Failures        uint64 `json:"failures"`
	ConsecutiveFail int    `json:"consecutive_failures"`
}

// Stats snapshots the source.
func (s *Source) Stats() SourceStats {
	s.mu.Lock()
	fails := s.fails
	s.mu.Unlock()
	return SourceStats{
		Addr:            s.addr,
		PayloadsPulled:  s.payloads.Load(),
		BytesPulled:     s.bytes.Load(),
		Failures:        s.failures.Load(),
		ConsecutiveFail: fails,
	}
}

// Set is the ordered upstream list an edge pulls from. Order is the
// configured preference (nearest first); the central server is always
// the implicit last resort and is not a member.
type Set struct {
	sources []*Source
	// now is the clock deciding backoff expiry; injectable for tests.
	now func() time.Time
}

// NewSet builds a set of sources in configured order.
func NewSet(addrs []string) *Set {
	p := &Set{now: time.Now}
	for _, a := range addrs {
		p.sources = append(p.sources, NewSource(a))
	}
	return p
}

// SetClock replaces the backoff clock (tests).
func (p *Set) SetClock(now func() time.Time) { p.now = now }

// Len reports the number of configured sources.
func (p *Set) Len() int {
	if p == nil {
		return 0
	}
	return len(p.sources)
}

// Available returns the sources worth trying now, in configured order.
// Backed-off sources are skipped; a round that exhausts every available
// source falls through to the central.
func (p *Set) Available() []*Source {
	if p == nil {
		return nil
	}
	now := p.now()
	out := make([]*Source, 0, len(p.sources))
	for _, s := range p.sources {
		if s.Available(now) {
			out = append(out, s)
		}
	}
	return out
}

// Fail records a failure on src against the set's clock.
func (p *Set) Fail(src *Source) { src.ReportFailure(p.now()) }

// Stats snapshots every configured source (available or not).
func (p *Set) Stats() []SourceStats {
	if p == nil {
		return nil
	}
	out := make([]SourceStats, len(p.sources))
	for i, s := range p.sources {
		out[i] = s.Stats()
	}
	return out
}

// Close tears down every source connection.
func (p *Set) Close() error {
	if p == nil {
		return nil
	}
	var errs []error
	for _, s := range p.sources {
		if err := s.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
