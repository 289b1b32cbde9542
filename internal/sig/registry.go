package sig

import (
	"fmt"
	"sync"
)

// Registry holds the public keys a client trusts, by version. It models the
// paper's "well-known location" publishing the validity period of each
// public key (§3.4): when the central server rotates keys after a delayed
// update broadcast, clients resolve the key version carried in a VO and
// reject versions whose validity window has closed — so an edge server
// cannot masquerade out-of-date data signed under an old private key.
type Registry struct {
	mu   sync.RWMutex
	keys map[uint32]*PublicKey
}

// NewRegistry returns an empty trusted-key registry.
func NewRegistry() *Registry {
	return &Registry{keys: make(map[uint32]*PublicKey)}
}

// Put registers (or replaces) the key for its version.
func (r *Registry) Put(k *PublicKey) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keys[k.Version] = k
}

// Get resolves a key version without checking validity.
func (r *Registry) Get(version uint32) (*PublicKey, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	k, ok := r.keys[version]
	return k, ok
}

// Resolve returns the key for version if it exists and its validity window
// covers atUnix.
func (r *Registry) Resolve(version uint32, atUnix int64) (*PublicKey, error) {
	r.mu.RLock()
	k, ok := r.keys[version]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sig: unknown key version %d", version)
	}
	if !k.ValidAt(atUnix) {
		return nil, fmt.Errorf("sig: key version %d not valid at %d (window [%d,%d])",
			version, atUnix, k.NotBefore, k.NotAfter)
	}
	return k, nil
}
