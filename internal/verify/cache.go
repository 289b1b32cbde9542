package verify

import (
	"bytes"
	"sync"
	"sync/atomic"

	"edgeauth/internal/digest"
	"edgeauth/internal/sig"
)

// DefaultCacheSize is the verified-digest cache capacity used when
// Verifier.CacheSize is zero.
const DefaultCacheSize = 1024

// sigCache remembers which payload a signature was proven to carry, so
// repeat queries over the same tree region (the common case: hot ranges,
// unchanged shards) skip the signature work entirely. Keyed by the
// trusted key the proof was made under — the very key, not its version:
// the version a VO or map names is not itself signed, and a version the
// registry has since bound to another key is another key, so an entry
// proven under one key must never answer a lookup made under another —
// and the raw signature bytes. An entry is only ever written after a
// successful verification, so a hit is as trustworthy as the original
// check. Signature bytes and payloads are
// copies: an entry outlives the frame the signature arrived in. Bounded
// by random-ish eviction (map iteration order): the cache is an
// amortizer, not a store, and any eviction policy keeps it correct.
type sigCache struct {
	mu     sync.Mutex
	m      map[sigKey]digest.Value
	max    int
	hits   atomic.Int64
	misses atomic.Int64
}

type sigKey struct {
	pub *sig.PublicKey
	sig string
}

func newSigCache(max int) *sigCache {
	return &sigCache{m: make(map[sigKey]digest.Value, max), max: max}
}

// proven reports whether s was proven to carry want under pub. A hit is
// a proof of exactly want: the same signature bytes cached over another
// payload count as a miss, and the real check decides.
func (c *sigCache) proven(pub *sig.PublicKey, s sig.Signature, want []byte) bool {
	c.mu.Lock()
	u, ok := c.m[sigKey{pub, string(s)}]
	c.mu.Unlock()
	if ok && bytes.Equal(u, want) {
		c.hits.Add(1)
		return true
	}
	c.misses.Add(1)
	return false
}

// store records a proven (key, signature, payload) triple, evicting
// arbitrary entries at capacity.
func (c *sigCache) store(pub *sig.PublicKey, s sig.Signature, u digest.Value) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.m) >= c.max {
		for k := range c.m {
			delete(c.m, k)
			if len(c.m) < c.max {
				break
			}
		}
	}
	c.m[sigKey{pub, string(s)}] = append(digest.Value(nil), u...)
}

// CacheStats reports the verified-digest cache's hit/miss ledger.
type CacheStats struct {
	Hits   int64
	Misses int64
}

// cache lazily initializes the verifier's digest cache; returns nil when
// caching is disabled (CacheSize < 0).
func (v *Verifier) cache() *sigCache {
	if v.CacheSize < 0 {
		return nil
	}
	v.cacheOnce.Do(func() {
		size := v.CacheSize
		if size == 0 {
			size = DefaultCacheSize
		}
		v.digestCache = newSigCache(size)
	})
	return v.digestCache
}

// CacheStats returns the verifier's cache ledger (zeros when disabled).
// It may run beside verifications: it reaches the cache through the same
// once-guarded initialisation they do.
func (v *Verifier) CacheStats() CacheStats {
	c := v.cache()
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// cachedVerifySig checks that s authenticates want (detached form) under
// pub, consulting the cache first: root signatures and shard-map
// signatures, whose payloads travel in the clear. The error is
// pub.Verify's own; callers wrap it in their sentinel.
func (v *Verifier) cachedVerifySig(pub *sig.PublicKey, s sig.Signature, want []byte) error {
	c := v.cache()
	if c == nil {
		return pub.Verify(s, want)
	}
	if c.proven(pub, s, want) {
		return nil
	}
	if err := pub.Verify(s, want); err != nil {
		return err
	}
	c.store(pub, s, digest.Value(want))
	return nil
}
