package edge

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"edgeauth/internal/vo"
	"edgeauth/internal/wire"
)

// A published set never changes, so the answer it gives a shard query is
// a function of the request bytes and of the clock second its VO is
// stamped with. Each set therefore keeps an answer memo: raw
// ShardQueryReq body → the answer section the set built for it. A repeat
// is served by copying that section, rewriting the VO's Timestamp and
// attaching the set's signed map, with no compile, pin, walk or encode;
// the client verifies every byte as it verifies a walk's. The memo is a
// field of its set, so a refresh, reshard or re-snapshot, each of which
// publishes a new set, starts from an empty one, and a superseded set's
// entries are freed with it.
const (
	// memoEntries bounds a set's memo. Entries are admitted until it is
	// full and never replaced, which assumes the requests that are hot
	// stay hot for the set's life: a set lives until a write publishes
	// the next, indefinitely on a table that gets none, and if the hot
	// requests move after the memo fills, the hit rate falls until then.
	// Replaying read.point's zipfian key stream (s = 1.1 over 32,768
	// ids) hits 83.6 % at 4,096 entries and 88.8 % at 8,192. Clock
	// (second-chance) replacement hit 84.1 % on that stream but cost 8 %
	// of read.point's verified_qps: each miss on a full memo then copies
	// its answer and takes the write lock, which parks the hits.
	memoEntries = 4096
	// memoMaxEntry is the most bytes an entry keeps, request body and
	// answer section together, so a set's memo holds at most
	// memoEntries × memoMaxEntry (16 MB) whatever a client sends and
	// whatever the shard count. A point request is a few dozen bytes and
	// its answer ~0.65 KB; a 256-row range answer (~27.5 KB), whose starts
	// rarely repeat, never enters, and pays only the lookup.
	memoMaxEntry = 4 << 10
)

// answerMemo is a tableSet's memo of the answers it built.
type answerMemo struct {
	mu      sync.RWMutex
	entries map[string]memoEntry
	// full is set once entries holds memoEntries, so a miss stops
	// copying its answer only to find no room.
	full atomic.Bool
}

// memoEntry is one memoized answer section. answer belongs to the memo
// and is never written after admission: a hit copies it out.
type memoEntry struct {
	answer []byte
	// stamp is the offset in answer of the VO's Timestamp.
	stamp   int
	voBytes int
}

// appendMemoized appends to dst the ShardQueryResp this set answers the
// request body with from its memo, restamped with the clock of shard
// idx's view (the clock a walk of the same request would stamp with),
// and reports its VO's size. ok is false if the memo does not hold body.
func (ts *tableSet) appendMemoized(dst, body []byte, idx uint32) (out []byte, voBytes int, ok bool) {
	ts.memo.mu.RLock()
	e, ok := ts.memo.entries[string(body)]
	ts.memo.mu.RUnlock()
	if !ok {
		return dst, 0, false
	}
	out, _ = wire.AppendShardQueryResponse(dst, func(dst []byte) ([]byte, []byte, error) {
		at := len(dst) + e.stamp
		dst = append(dst, e.answer...)
		// Only this set admitted body, so idx names one of its shards.
		binary.BigEndian.PutUint64(dst[at:], uint64(ts.shards[idx].view.Now()))
		return dst, ts.smapBytes, nil
	})
	return out, e.voBytes, true
}

// memoize admits answer, the answer section this set built for the
// request body, if the entry fits memoMaxEntry and the memo has room.
// Both are copied: the caller's buffers go back to the transport.
func (ts *tableSet) memoize(body, answer []byte) {
	m := &ts.memo
	if len(body)+len(answer) > memoMaxEntry || m.full.Load() {
		return
	}
	at, voBytes, err := vo.TimestampAt(answer)
	if err != nil {
		return // Finish accepted the answer's layout, so this cannot happen; keep nothing
	}
	e := memoEntry{answer: append([]byte(nil), answer...), stamp: at, voBytes: voBytes}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries == nil {
		m.entries = make(map[string]memoEntry)
	}
	if len(m.entries) < memoEntries {
		m.entries[string(body)] = e
	}
	m.full.Store(len(m.entries) >= memoEntries)
}
