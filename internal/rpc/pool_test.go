package rpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
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
// until release is closed or its context ends, after signalling held.
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

// idleCount reports the sessions waiting for a call.
func (c *Conn) idleCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.idle)
}

// waiting reports the callers waiting for a session another call returns.
func (c *Conn) waiting() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

// waitAll waits for n calls' errors and fails on the first that is not
// nil.
func waitAll(t *testing.T, done <-chan error, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPoolHoldsOneSessionPerOverlappingCall: k calls that overlap hold k
// sessions, whatever GOMAXPROCS is; once they return, the Conn keeps
// GOMAXPROCS of them idle and closes the rest. Each caller here starts
// while every earlier call is still held at the server, so each dials.
func TestPoolHoldsOneSessionPerOverlappingCall(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			held, release := make(chan struct{}), make(chan struct{})
			srv := startCountedServer(t, holdingHandler(held, release), ServeOptions{})
			c := New(srv.addr, Options{})
			defer c.Close()

			k := procs + 2
			done := holdCalls(t, c, k, held, true)
			if n := srv.accepted.Load(); n != int64(k) {
				t.Errorf("%d overlapping calls opened %d sessions, want %d", k, n, k)
			}
			close(release)
			waitAll(t, done, k)
			if n := c.idleCount(); n != procs {
				t.Errorf("%d sessions idle after the calls returned, want GOMAXPROCS = %d", n, procs)
			}
			srv.waitClosed(t, k-procs)
		})
	}

	// Callers racing from the start: once they are done, every session
	// still open is idle, and no more than GOMAXPROCS are.
	t.Run("racing callers", func(t *testing.T) {
		srv := startCountedServer(t, echoHandler, ServeOptions{})
		c := New(srv.addr, Options{})
		defer c.Close()
		const callers = 16
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
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
		c.mu.Lock()
		open, idle := len(c.open), len(c.idle)
		c.mu.Unlock()
		if open != idle {
			t.Errorf("%d sessions open after every call returned, %d of them idle: want all", open, idle)
		}
		if procs := runtime.GOMAXPROCS(0); idle > procs {
			t.Errorf("%d sessions idle, want at most GOMAXPROCS = %d", idle, procs)
		}
	})
}

// TestPoolSequentialCallsUseOneSession: a caller whose calls never
// overlap always finds the session it returned idle, so it never opens a
// second however many processors there are.
func TestPoolSequentialCallsUseOneSession(t *testing.T) {
	withProcs(t, 4)
	srv := startCountedServer(t, echoHandler, ServeOptions{})
	c := New(srv.addr, Options{})
	defer c.Close()
	for i := 0; i < 1000; i++ {
		if _, err := c.Call(context.Background(), wire.MsgShardQueryReq, []byte{byte(i)}, wire.MsgShardQueryResp, true); err != nil {
			t.Fatal(err)
		}
	}
	if n := srv.accepted.Load(); n != 1 {
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
// dies, only the call on it fails; the other call completes on its own
// session, which then serves the calls after, without a redial.
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
				ServeConn(context.Background(), nc, holdingHandler(held, release), ServeOptions{})
			}()
		}
	}()
	c := New(ln.Addr().String(), Options{})
	defer c.Close()

	// Not idempotent, so a call whose request went out is not retried:
	// its failure shows.
	first := holdCalls(t, c, 1, held, false)
	second := holdCalls(t, c, 1, held, false)

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

	close(release)
	if err := <-second; err != nil {
		t.Fatalf("the call on the live session: %v", err)
	}
	if n := c.idleCount(); n != 1 {
		t.Fatalf("%d sessions idle after one died, want the other one", n)
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

// TestPoolCancelledCallClosesOnlyItsSession: a call whose context is
// cancelled mid-exchange returns the context's error and closes its own
// session — the response it abandoned must not meet the next call — and
// no other: the call beside it completes, and its session serves the
// next call without a redial.
func TestPoolCancelledCallClosesOnlyItsSession(t *testing.T) {
	withProcs(t, 2)
	held, release := make(chan struct{}), make(chan struct{})
	srv := startCountedServer(t, holdingHandler(held, release), ServeOptions{})
	c := New(srv.addr, Options{})
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		_, err := c.Call(ctx, wire.MsgShardQueryReq, []byte("hold"), wire.MsgShardQueryResp, true)
		cancelled <- err
	}()
	<-held
	other := holdCalls(t, c, 1, held, true)
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("the cancelled call returned %v, want context.Canceled", err)
	}
	close(release)
	if err := <-other; err != nil {
		t.Fatalf("the call beside the cancelled one: %v", err)
	}
	// The server answers the abandoned request into a closed connection,
	// and closes its side.
	srv.waitClosed(t, 1)
	if _, err := c.Call(context.Background(), wire.MsgShardQueryReq, []byte("next"), wire.MsgShardQueryResp, false); err != nil {
		t.Fatal(err)
	}
	if n := srv.accepted.Load(); n != 2 {
		t.Fatalf("%d sessions opened, want 2: the next call takes the surviving one", n)
	}
}

// TestPoolWrongIDFailsOnlyItsCall: a response whose request ID is not the
// one the session asked fails its call with a transport error and closes
// the session; the Conn's next call dials a fresh one and succeeds.
func TestPoolWrongIDFailsOnlyItsCall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hungUp := make(chan error, 1)
	go func() {
		// The first connection answers request n as request n+1, then
		// reports how its peer left; every later one is served honestly.
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer nc.Close()
			nc.SetDeadline(time.Now().Add(5 * time.Second))
			if _, _, _, err := wire.ReadFrame(nc); err != nil {
				hungUp <- err
				return
			}
			wire.WriteFrame(nc, wire.MsgHelloResp, 0, wire.EncodeHello(wire.ProtocolVersion))
			_, id, body, err := wire.ReadFrame(nc)
			if err != nil {
				hungUp <- err
				return
			}
			wire.WriteFrame(nc, wire.MsgShardQueryResp, id+1, body)
			_, _, _, err = wire.ReadFrame(nc)
			hungUp <- err
		}()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				ServeConn(context.Background(), nc, echoHandler, ServeOptions{})
			}()
		}
	}()
	c := New(ln.Addr().String(), Options{})
	defer c.Close()

	_, err = c.Call(context.Background(), wire.MsgShardQueryReq, []byte("a"), wire.MsgShardQueryResp, false)
	var we *wire.WireError
	if err == nil || errors.As(err, &we) || !strings.Contains(err.Error(), "response to request 2, want 1") {
		t.Fatalf("a call answered on the wrong request ID returned %v, want a transport error", err)
	}
	if err := <-hungUp; !errors.Is(err, io.EOF) {
		t.Fatalf("after the wrong-ID response the session %v, want it closed", err)
	}
	if resp, err := c.Call(context.Background(), wire.MsgShardQueryReq, []byte("b"), wire.MsgShardQueryResp, false); err != nil || string(resp) != "b" {
		t.Fatalf("the call after: %q, %v", resp, err)
	}
}

// TestPoolRedialsWhenEverySessionDiedIdle: sessions that die while idle
// — here the server's idle timeout closes both of a grown pool at once,
// as it does to a client that pauses — are found dead before the next
// call writes to them, so it dials exactly one fresh session instead of
// failing on a dead one. Even a non-idempotent call succeeds: it was
// never sent.
func TestPoolRedialsWhenEverySessionDiedIdle(t *testing.T) {
	withProcs(t, 2)
	held, release := make(chan struct{}), make(chan struct{})
	srv := startCountedServer(t, holdingHandler(held, release), ServeOptions{IdleTimeout: 500 * time.Millisecond})
	c := New(srv.addr, Options{})
	defer c.Close()

	done := holdCalls(t, c, 2, held, true)
	close(release)
	waitAll(t, done, 2)
	if n := c.idleCount(); n != 2 {
		t.Fatalf("two overlapping calls left %d sessions idle, want 2", n)
	}

	// Wait until the server has closed both.
	srv.waitClosed(t, 2)
	resp, err := c.Call(context.Background(), wire.MsgShardQueryReq, []byte("after"), wire.MsgShardQueryResp, false)
	if err != nil {
		t.Fatalf("non-idempotent call after every session died idle: %v", err)
	}
	if string(resp) != "after" {
		t.Fatalf("resp = %q", resp)
	}
	if n := srv.accepted.Load(); n != 3 {
		t.Fatalf("the call opened %d sessions, want 1", n-2)
	}
}

// TestPoolSharesWhenADialFails: when a caller's dial fails while another
// call holds a session, the caller is handed that session when the call
// returns it, instead of failing — or, if its own context ends first, it
// returns the context's error and the session goes idle.
func TestPoolSharesWhenADialFails(t *testing.T) {
	for _, cancelFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("cancelled=%v", cancelFirst), func(t *testing.T) {
			withProcs(t, 2)
			held, release := make(chan struct{}), make(chan struct{})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			refused := make(chan struct{}, 1)
			go func() {
				// The first connection is served; every later one is
				// closed before its Hello is answered.
				for i := 0; ; i++ {
					nc, err := ln.Accept()
					if err != nil {
						return
					}
					if i > 0 {
						nc.Close()
						refused <- struct{}{}
						continue
					}
					go func() {
						defer nc.Close()
						ServeConn(context.Background(), nc, holdingHandler(held, release), ServeOptions{})
					}()
				}
			}()
			c := New(ln.Addr().String(), Options{})
			defer c.Close()

			first := holdCalls(t, c, 1, held, false)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			second := make(chan error, 1)
			go func() {
				_, err := c.Call(ctx, wire.MsgShardQueryReq, []byte("quick"), wire.MsgShardQueryResp, false)
				second <- err
			}()
			<-refused // the second caller's dial has failed
			for deadline := time.Now().Add(5 * time.Second); c.waiting() != 1; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatal("the caller whose dial failed does not wait for a session")
				}
			}
			if cancelFirst {
				cancel()
				if err := <-second; !errors.Is(err, context.Canceled) {
					t.Fatalf("the waiting caller's context ended: %v, want context.Canceled", err)
				}
			}
			close(release)
			if err := <-first; err != nil {
				t.Fatal(err)
			}
			if !cancelFirst {
				if err := <-second; err != nil {
					t.Fatalf("the caller whose dial failed: %v, want the returned session", err)
				}
			}
			if n := c.idleCount(); n != 1 {
				t.Fatalf("%d sessions idle, want the one that served both callers", n)
			}
			select {
			case <-refused:
				t.Fatal("the waiting caller dialled again")
			default:
			}
		})
	}
}

// TestPoolCloseLeavesNoGoroutine: an idle session costs its client no
// goroutine and its server one, the connection's; Close ends every
// session of a full pool, and with them the server's goroutines.
func TestPoolCloseLeavesNoGoroutine(t *testing.T) {
	withProcs(t, 4)
	held, release := make(chan struct{}), make(chan struct{})
	addr := startServer(t, holdingHandler(held, release), ServeOptions{})
	settleGoroutines(t, serving, 0) // earlier tests' connections have closed
	c := New(addr, Options{})
	done := holdCalls(t, c, 4, held, true)
	close(release)
	waitAll(t, done, 4)
	if n := c.idleCount(); n != 4 {
		t.Fatalf("four overlapping calls left %d sessions idle, want 4", n)
	}
	if n := serving(); n != 4 {
		t.Errorf("4 idle sessions are served by %d goroutines, want 4", n)
	}
	if n := goroutinesIn("edgeauth/internal/rpc.(*Conn)", "edgeauth/internal/rpc.(*session)"); n != 0 {
		t.Errorf("4 idle sessions run %d goroutines in their client, want 0", n)
	}
	c.Close()
	settleGoroutines(t, serving, 0)
	if _, err := c.Call(context.Background(), wire.MsgShardQueryReq, []byte("x"), wire.MsgShardQueryResp, true); err == nil {
		t.Fatal("a call on a closed Conn succeeded")
	}
}

// BenchmarkConcurrentCalls measures the transport alone: callers share
// one Conn to an echo server and split b.N calls between them. It
// reports the calls a second they complete together and the sessions the
// Conn opened. Run it with -cpu 1,2,4: GOMAXPROCS is how many sessions a
// Conn keeps idle between calls.
func BenchmarkConcurrentCalls(b *testing.B) {
	for _, callers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			srv := startCountedServer(b, echoHandler, ServeOptions{})
			c := New(srv.addr, Options{})
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
			b.ReportMetric(float64(srv.accepted.Load()), "sessions")
		})
	}
}
