package central

import (
	"sort"
	"sync"

	"edgeauth/internal/schema"
)

// loadSketch is a per-shard reservoir sample of the keys the shard's
// load actually touches (every applied insert). The detector-driven
// split reads its median so a hot shard is cut where the *traffic*
// concentrates, not at the key-count midpoint — a shard whose load all
// lands in the top decile of its key range splits there, moving half
// the load instead of half the keys.
//
// The mutex is a leaf lock: observe/median/reset call nothing that can
// block or sign, so it is safe under any shard or table lock.
type loadSketch struct {
	mu   sync.Mutex
	keys []schema.Datum
	seen uint64
	rng  uint64
}

const (
	// sketchCap bounds the reservoir; 256 keys place a median within a
	// few percentiles of the true load distribution.
	sketchCap = 256
	// sketchMinWarm is how many observations the sketch needs before its
	// median outranks the key-count median fallback.
	sketchMinWarm = 16
)

// observe folds one touched key into the reservoir (uniform reservoir
// sampling, so the sample stays representative of all-time load; the
// reservoir is reset when the shard is carved, so in practice it tracks
// the shard's own lifetime).
func (k *loadSketch) observe(d schema.Datum) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.seen++
	if len(k.keys) < sketchCap {
		k.keys = append(k.keys, d)
		return
	}
	// xorshift64: cheap, seedless (state primed from the observation
	// count), and plenty uniform for reservoir replacement.
	if k.rng == 0 {
		k.rng = k.seen*0x9e3779b97f4a7c15 | 1
	}
	k.rng ^= k.rng << 13
	k.rng ^= k.rng >> 7
	k.rng ^= k.rng << 17
	if j := k.rng % k.seen; j < uint64(len(k.keys)) {
		k.keys[j] = d
	}
}

// median returns the sampled load median, or ok=false while the sketch
// is too cold to outrank the key-count fallback.
func (k *loadSketch) median() (schema.Datum, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if len(k.keys) < sketchMinWarm {
		return schema.Datum{}, false
	}
	sorted := append([]schema.Datum(nil), k.keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Compare(sorted[j]) < 0 })
	return sorted[len(sorted)/2], true
}

// reset empties the reservoir (a freshly carved child starts cold and
// re-learns its own load shape).
func (k *loadSketch) reset() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.keys = nil
	k.seen = 0
}
