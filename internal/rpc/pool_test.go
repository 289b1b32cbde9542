package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgeauth/internal/wire"
)

// withProcs runs the rest of the test at GOMAXPROCS = n, the bound of
// every Conn New makes meanwhile.
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// holdingHandler echoes, but holds a request whose body starts with 'h'
// until release is closed or the connection ends, after signalling held.
func holdingHandler(held chan<- struct{}, release <-chan struct{}) Handler {
	return func(ctx context.Context, mt wire.MsgType, body, _ []byte) (wire.MsgType, []byte, error) {
		if len(body) > 0 && body[0] == 'h' {
			held <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return 0, nil, ctx.Err()
			}
		}
		return wire.MsgShardQueryResp, body, nil
	}
}

// holdCalls starts n calls on c, one after another, and waits for each
// to be held at the server before it starts the next; each call's error
// arrives on the returned channel once the call returns.
func holdCalls(t *testing.T, c *Conn, n int, held <-chan struct{}, idempotent bool) <-chan error {
	t.Helper()
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := c.Call(context.Background(), wire.MsgShardQueryReq, []byte("hold"), wire.MsgShardQueryResp, idempotent)
			done <- err
		}()
		select {
		case <-held:
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d never reached the handler", i+1)
		}
	}
	return done
}

func (c *Conn) sessionCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sessions)
}

// TestPoolOpensOneSessionPerProcessor: callers that overlap open
// sessions up to GOMAXPROCS, and no further — at GOMAXPROCS = 1 never a
// second one. Each caller here starts while every earlier call is still
// held at the server, so the pool grows by exactly one session per call
// until it reaches its bound, and later calls share what it has.
func TestPoolOpensOneSessionPerProcessor(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			held, release := make(chan struct{}), make(chan struct{})
			addr, accepted := startCountedServer(t, holdingHandler(held, release), ServeOptions{})
			c := New(addr, Options{})
			defer c.Close()

			k := procs + 2
			done := holdCalls(t, c, k, held, true)
			if n := accepted.Load(); n != int64(procs) {
				t.Errorf("%d overlapping calls opened %d sessions, want GOMAXPROCS = %d", k, n, procs)
			}
			if n := c.sessionCount(); n != procs {
				t.Errorf("the pool holds %d sessions, want %d", n, procs)
			}
			close(release)
			for i := 0; i < k; i++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
		})
	}

	// Callers racing from the start, at whatever GOMAXPROCS the test runs
	// under (go test -cpu 1 included), stay inside the bound too.
	t.Run("racing callers", func(t *testing.T) {
		addr, accepted := startCountedServer(t, echoHandler, ServeOptions{})
		c := New(addr, Options{})
		defer c.Close()
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if _, err := c.Call(context.Background(), wire.MsgShardQueryReq, []byte{byte(g), byte(i)}, wire.MsgShardQueryResp, true); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if n, procs := accepted.Load(), runtime.GOMAXPROCS(0); n > int64(procs) {
			t.Errorf("16 racing callers opened %d sessions, want at most GOMAXPROCS = %d", n, procs)
		}
	})
}

// TestPoolSequentialCallsUseOneSession: a caller whose calls never
// overlap always finds the first session idle, so it never opens a
// second however many processors there are.
func TestPoolSequentialCallsUseOneSession(t *testing.T) {
	withProcs(t, 4)
	addr, accepted := startCountedServer(t, echoHandler, ServeOptions{})
	c := New(addr, Options{})
	defer c.Close()
	for i := 0; i < 1000; i++ {
		if _, err := c.Call(context.Background(), wire.MsgShardQueryReq, []byte{byte(i)}, wire.MsgShardQueryResp, true); err != nil {
			t.Fatal(err)
		}
	}
	if n := accepted.Load(); n != 1 {
		t.Fatalf("1,000 sequential calls opened %d sessions, want 1", n)
	}
}

// recordingListener keeps the server side of every connection it
// accepts, in order.
type recordingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *recordingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, nc)
		l.mu.Unlock()
	}
	return nc, err
}

func (l *recordingListener) conn(i int) net.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conns[i]
}

// TestPoolDeadSessionFailsOnlyItsCalls: when one session's connection
// dies, only the calls in flight on it fail; the pool drops that session
// alone, and the calls on the others — and the calls after — are served
// on what is left, without a redial.
func TestPoolDeadSessionFailsOnlyItsCalls(t *testing.T) {
	withProcs(t, 2)
	held, release := make(chan struct{}), make(chan struct{})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &recordingListener{Listener: inner}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				ServeConn(nc, holdingHandler(held, release), ServeOptions{})
			}()
		}
	}()
	c := New(ln.Addr().String(), Options{})
	defer c.Close()

	// Not idempotent, so a call whose request went out is not retried:
	// its failure shows.
	first := holdCalls(t, c, 1, held, false)
	second := holdCalls(t, c, 1, held, false)
	if n := c.sessionCount(); n != 2 {
		t.Fatalf("two overlapping calls on %d sessions, want 2", n)
	}

	ln.conn(0).Close()
	select {
	case err := <-first:
		var we *wire.WireError
		if err == nil || errors.As(err, &we) {
			t.Fatalf("the call on the killed session returned %v, want a transport error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the call on the killed session never returned")
	}
	select {
	case err := <-second:
		t.Fatalf("the call on the live session returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if n := c.sessionCount(); n != 1 {
		t.Fatalf("after one session died the pool holds %d, want the other one", n)
	}

	close(release)
	if err := <-second; err != nil {
		t.Fatalf("the call on the live session: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Call(context.Background(), wire.MsgShardQueryReq, []byte("after"), wire.MsgShardQueryResp, false); err != nil {
			t.Fatal(err)
		}
	}
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if n := len(ln.conns); n != 2 {
		t.Fatalf("the surviving session's calls made the Conn dial: %d connections, want 2", n)
	}
}

// TestPoolRedialsWhenEverySessionDiedIdle: sessions that die while idle
// — here the server's idle timeout closes both of a grown pool at once,
// as it does to a client that pauses — leave the pool as they die, so
// the next call dials a fresh session instead of retrying onto a second
// dead one. Even a non-idempotent call succeeds: it was never sent.
func TestPoolRedialsWhenEverySessionDiedIdle(t *testing.T) {
	withProcs(t, 2)
	held, release := make(chan struct{}), make(chan struct{})
	addr, accepted := startCountedServer(t, holdingHandler(held, release), ServeOptions{IdleTimeout: 500 * time.Millisecond})
	c := New(addr, Options{RedialBackoff: 5 * time.Millisecond})
	defer c.Close()

	done := holdCalls(t, c, 2, held, true)
	if n := c.sessionCount(); n != 2 {
		t.Fatalf("two overlapping calls on %d sessions, want 2", n)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	// Wait until no live session is left in the pool.
	deadline := time.Now().Add(5 * time.Second)
	for live := true; live; {
		if time.Now().After(deadline) {
			t.Fatal("the server never idle-dropped the sessions")
		}
		time.Sleep(20 * time.Millisecond)
		c.mu.Lock()
		live = false
		for _, s := range c.sessions {
			s.pendMu.Lock()
			live = live || s.dead == nil
			s.pendMu.Unlock()
		}
		c.mu.Unlock()
	}
	opened := accepted.Load()
	resp, err := c.Call(context.Background(), wire.MsgShardQueryReq, []byte("after"), wire.MsgShardQueryResp, false)
	if err != nil {
		t.Fatalf("non-idempotent call after every session died idle: %v", err)
	}
	if string(resp) != "after" {
		t.Fatalf("resp = %q", resp)
	}
	if n := accepted.Load(); n != opened+1 {
		t.Fatalf("the call opened %d sessions, want 1", n-opened)
	}
}

// TestPoolSharesWhenADialFails: when every session is busy and the dial
// for one more fails, the caller shares a session the pool has instead
// of failing its call, and the pool stops trying to grow.
func TestPoolSharesWhenADialFails(t *testing.T) {
	withProcs(t, 2)
	held, release := make(chan struct{}), make(chan struct{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		// One connection, then the listener closes: every later dial is
		// refused.
		nc, err := ln.Accept()
		ln.Close()
		if err != nil {
			return
		}
		defer nc.Close()
		ServeConn(nc, holdingHandler(held, release), ServeOptions{})
	}()
	c := New(ln.Addr().String(), Options{RedialAttempts: 1})
	defer c.Close()

	first := holdCalls(t, c, 1, held, false)
	second := holdCalls(t, c, 1, held, false)
	if n := c.sessionCount(); n != 1 {
		t.Fatalf("the pool holds %d sessions after a refused dial, want 1", n)
	}
	c.mu.Lock()
	halted := c.growHalted
	c.mu.Unlock()
	if !halted {
		t.Fatal("after a refused dial the pool still tries to grow")
	}
	close(release)
	for _, done := range []<-chan error{first, second} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPoolCloseLeavesNoGoroutine: Close ends every session of a full
// pool — each reader on this side, each connection's loop and workers on
// the server's.
func TestPoolCloseLeavesNoGoroutine(t *testing.T) {
	withProcs(t, 4)
	held, release := make(chan struct{}), make(chan struct{})
	addr := startServer(t, holdingHandler(held, release), ServeOptions{})
	before := runtime.NumGoroutine()
	c := New(addr, Options{})
	done := holdCalls(t, c, 4, held, true)
	if n := c.sessionCount(); n != 4 {
		t.Fatalf("four overlapping calls on %d sessions, want 4", n)
	}
	close(release)
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	settleGoroutines(t, before)
	if _, err := c.Call(context.Background(), wire.MsgShardQueryReq, []byte("x"), wire.MsgShardQueryResp, true); err == nil {
		t.Fatal("a call on a closed Conn succeeded")
	}
}

// BenchmarkConcurrentCalls measures the transport alone: callers share
// one Conn to an echo server and split b.N calls between them. It
// reports the calls a second they complete together and the sessions the
// Conn opened. Run it with -cpu 1 to see the one-session case.
func BenchmarkConcurrentCalls(b *testing.B) {
	for _, callers := range []int{1, 2} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			addr, accepted := startCountedServer(b, echoHandler, ServeOptions{})
			c := New(addr, Options{})
			defer c.Close()
			ctx := context.Background()
			if err := c.Connect(ctx); err != nil {
				b.Fatal(err)
			}
			body := []byte("ping")
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			start := time.Now()
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := c.Call(ctx, wire.MsgShardQueryReq, body, wire.MsgShardQueryResp, true); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "calls/s")
			b.ReportMetric(float64(accepted.Load()), "sessions")
		})
	}
}
