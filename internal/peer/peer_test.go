package peer

import (
	"bytes"
	"testing"
	"time"
)

func TestCachePutGet(t *testing.T) {
	c := NewCache(2)

	if _, _, ok := c.Get("t#0", 1, 0); ok {
		t.Fatal("empty cache returned a body")
	}
	c.Put("t#0", 1, 0, 2, []byte("a"))
	body, to, ok := c.Get("t#0", 1, 0)
	if !ok || to != 2 || !bytes.Equal(body, []byte("a")) {
		t.Fatalf("Get = %q v%d %v", body, to, ok)
	}

	// Same (epoch, from) replaces in place — a later, wider delta from
	// the same anchor supersedes the narrow one.
	c.Put("t#0", 1, 0, 3, []byte("b"))
	if body, to, _ := c.Get("t#0", 1, 0); to != 3 || !bytes.Equal(body, []byte("b")) {
		t.Fatalf("replace: got %q v%d", body, to)
	}

	// Epoch is part of the key: an old-incarnation body never answers a
	// new-incarnation request.
	if _, _, ok := c.Get("t#0", 2, 0); ok {
		t.Fatal("cross-epoch lookup hit")
	}

	// Noop windows are refused.
	c.Put("t#0", 1, 5, 5, []byte("x"))
	if _, _, ok := c.Get("t#0", 1, 5); ok {
		t.Fatal("noop delta was cached")
	}

	// FIFO eviction beyond perRef (2): the oldest anchor falls out.
	c.Put("t#0", 1, 3, 4, []byte("c"))
	c.Put("t#0", 1, 4, 5, []byte("d"))
	if _, _, ok := c.Get("t#0", 1, 0); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, _, ok := c.Get("t#0", 1, 4); !ok {
		t.Fatal("newest entry evicted")
	}

	c.Drop("t#0")
	if _, _, ok := c.Get("t#0", 1, 4); ok {
		t.Fatal("Drop left entries behind")
	}

	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("stats = %+v, want both hits and misses", st)
	}
}

func TestSourceBackoff(t *testing.T) {
	src := NewSource("127.0.0.1:1")
	defer src.Close()
	now := time.Unix(1000, 0)

	if !src.Available(now) {
		t.Fatal("fresh source unavailable")
	}
	src.ReportFailure(now)
	if src.Available(now) {
		t.Fatal("failed source still available")
	}
	// First failure backs off baseBackoff; past the window it is retried.
	if !src.Available(now.Add(baseBackoff)) {
		t.Fatal("source not retried after backoff window")
	}
	// Consecutive failures double the window.
	src.ReportFailure(now)
	if src.Available(now.Add(baseBackoff)) {
		t.Fatal("second failure did not extend the backoff")
	}
	if !src.Available(now.Add(2 * baseBackoff)) {
		t.Fatal("doubled window never expires")
	}
	// The window is capped.
	for i := 0; i < 40; i++ {
		src.ReportFailure(now)
	}
	if !src.Available(now.Add(maxBackoff)) {
		t.Fatal("backoff exceeded maxBackoff")
	}
	// One success heals completely.
	src.ReportSuccess(128)
	if !src.Available(now) {
		t.Fatal("healed source unavailable")
	}

	st := src.Stats()
	if st.Addr != "127.0.0.1:1" || st.PayloadsPulled != 1 || st.BytesPulled != 128 || st.Failures != 42 || st.ConsecutiveFail != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSetOrderAndClock(t *testing.T) {
	set := NewSet([]string{"a:1", "b:2", "c:3"})
	defer set.Close()
	now := time.Unix(2000, 0)
	set.SetClock(func() time.Time { return now })

	avail := set.Available()
	if len(avail) != 3 || avail[0].Addr() != "a:1" || avail[2].Addr() != "c:3" {
		t.Fatalf("available order = %v", addrs(avail))
	}

	// A failed source drops out of the walk but stays in Stats.
	set.Fail(avail[1])
	if got := addrs(set.Available()); len(got) != 2 || got[0] != "a:1" || got[1] != "c:3" {
		t.Fatalf("after failure: %v", got)
	}
	if st := set.Stats(); len(st) != 3 || st[1].ConsecutiveFail != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// Advancing the clock past the backoff readmits it, in order.
	now = now.Add(baseBackoff)
	if got := addrs(set.Available()); len(got) != 3 || got[1] != "b:2" {
		t.Fatalf("after backoff expiry: %v", got)
	}
}

func TestNilSet(t *testing.T) {
	var set *Set
	if set.Len() != 0 || set.Available() != nil || set.Stats() != nil || set.Close() != nil {
		t.Fatal("nil Set is not inert")
	}
}

func addrs(srcs []*Source) []string {
	out := make([]string, len(srcs))
	for i, s := range srcs {
		out[i] = s.Addr()
	}
	return out
}
