package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgeauth/internal/wire"
)

// echoHandler answers MsgShardQueryReq with MsgShardQueryResp carrying
// the request body back, and fails everything else with a typed error.
func echoHandler(_ context.Context, mt wire.MsgType, body, _ []byte) (wire.MsgType, []byte, error) {
	switch mt {
	case wire.MsgShardQueryReq:
		return wire.MsgShardQueryResp, body, nil
	case wire.MsgSchemaReq:
		return 0, nil, wire.UnknownTable("test", string(body))
	default:
		return 0, nil, wire.Unsupported("test", mt)
	}
}

// startServer serves connections with h until the test ends.
func startServer(t *testing.T, h Handler, o ServeOptions) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				ServeConn(conn, h, o)
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

func TestHandshakeAndCall(t *testing.T) {
	if wire.ProtocolVersion != 6 {
		t.Fatalf("this build speaks protocol %d; the handshake tests are written for 6", wire.ProtocolVersion)
	}
	addr := startServer(t, echoHandler, ServeOptions{})
	c := New(addr, Options{})
	defer c.Close()
	ctx := context.Background()
	resp, err := c.Call(ctx, wire.MsgShardQueryReq, []byte("ping"), wire.MsgShardQueryResp, true)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ping" {
		t.Fatalf("echo = %q", resp)
	}
}

// TestHandshakeRejectsOtherProtocols: there is one protocol generation.
// A server answers a connection that does not open with a well-formed
// Hello offering ProtocolVersion with one typed error frame and hangs up; a
// dialer treats any reply but a HelloResp negotiating ProtocolVersion as a
// dial error. Neither side downgrades — not even to 5, the generation
// just before, whose Merkle pages and VOs commit by the combiner where
// this build commits by ordered hashes, or to 4, whose snapshots and
// schema responses carry an accumulator block this build no longer reads.
func TestHandshakeRejectsOtherProtocols(t *testing.T) {
	type frame struct {
		mt   wire.MsgType
		body []byte
	}
	cases := []struct {
		name string
		// open is what a raw dialer sends a real ServeConn as its first
		// frame; reply is what a fake server answers a real Conn's Hello
		// with. Exactly one is set.
		open, reply *frame
		want        wire.ErrCode
	}{
		{name: "non-hello first frame", open: &frame{wire.MsgShardQueryReq, []byte("x")}, want: wire.CodeUnsupported},
		{name: "hello max version 1", open: &frame{wire.MsgHello, wire.EncodeHelloCaps(1, 0)}, want: wire.CodeUnsupported},
		{name: "hello max version 2", open: &frame{wire.MsgHello, wire.EncodeHelloCaps(2, 0)}, want: wire.CodeUnsupported},
		{name: "hello max version 3", open: &frame{wire.MsgHello, wire.EncodeHelloCaps(3, 0)}, want: wire.CodeUnsupported},
		{name: "hello max version 4", open: &frame{wire.MsgHello, wire.EncodeHelloCaps(4, 0)}, want: wire.CodeUnsupported},
		{name: "hello max version 5", open: &frame{wire.MsgHello, wire.EncodeHelloCaps(5, 0)}, want: wire.CodeUnsupported},
		{name: "4-byte hello body", open: &frame{wire.MsgHello, []byte{0, 0, 0, 2}}, want: wire.CodeBadRequest},
		{name: "hello-resp negotiating 1", reply: &frame{wire.MsgHelloResp, wire.EncodeHelloCaps(1, 0)}, want: wire.CodeUnsupported},
		{name: "hello-resp negotiating 2", reply: &frame{wire.MsgHelloResp, wire.EncodeHelloCaps(2, 0)}, want: wire.CodeUnsupported},
		{name: "hello-resp negotiating 3", reply: &frame{wire.MsgHelloResp, wire.EncodeHelloCaps(3, 0)}, want: wire.CodeUnsupported},
		{name: "hello-resp negotiating 4", reply: &frame{wire.MsgHelloResp, wire.EncodeHelloCaps(4, 0)}, want: wire.CodeUnsupported},
		{name: "hello-resp negotiating 5", reply: &frame{wire.MsgHelloResp, wire.EncodeHelloCaps(5, 0)}, want: wire.CodeUnsupported},
		{name: "error reply to hello", reply: &frame{wire.MsgError, wire.Unsupported("test", wire.MsgHello).Encode()}, want: wire.CodeUnsupported},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.open != nil {
				var handled atomic.Int64
				h := func(ctx context.Context, mt wire.MsgType, body, out []byte) (wire.MsgType, []byte, error) {
					handled.Add(1)
					return echoHandler(ctx, mt, body, out)
				}
				nc, err := net.Dial("tcp", startServer(t, h, ServeOptions{}))
				if err != nil {
					t.Fatal(err)
				}
				defer nc.Close()
				nc.SetDeadline(time.Now().Add(5 * time.Second))
				if err := wire.WriteFrame(nc, tc.open.mt, tc.open.body); err != nil {
					t.Fatal(err)
				}
				mt, body, err := wire.ReadFrame(nc)
				if err != nil || mt != wire.MsgError {
					t.Fatalf("reply: mt=%v err=%v, want one error frame", mt, err)
				}
				if got := wire.DecodeWireError(body); got.Code != tc.want {
					t.Fatalf("error code = %v (%v), want %v", got.Code, got, tc.want)
				}
				if _, _, err := wire.ReadFrame(nc); !errors.Is(err, io.EOF) {
					t.Fatalf("after the error frame: %v, want a closed connection", err)
				}
				if n := handled.Load(); n != 0 {
					t.Fatalf("handler ran %d times for a refused connection", n)
				}
				return
			}

			// A fake server: read the Hello, answer tc.reply, then report
			// whatever the dialer does next (it must hang up). Call redials
			// once after a failed dial, so every connection gets the script.
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			script := func(nc net.Conn) error {
				defer nc.Close()
				nc.SetDeadline(time.Now().Add(5 * time.Second))
				if mt, _, err := wire.ReadFrame(nc); err != nil || mt != wire.MsgHello {
					return fmt.Errorf("first frame: mt=%v err=%v", mt, err)
				}
				if err := wire.WriteFrame(nc, tc.reply.mt, tc.reply.body); err != nil {
					return err
				}
				_, _, err := wire.ReadFrame(nc)
				return err
			}
			next := make(chan error, 2) // one per dial; Call makes at most two
			go func() {
				for {
					nc, err := ln.Accept()
					if err != nil {
						return
					}
					next <- script(nc)
				}
			}()
			c := New(ln.Addr().String(), Options{RedialAttempts: 1})
			defer c.Close()
			_, err = c.Call(context.Background(), wire.MsgShardQueryReq, []byte("x"), wire.MsgShardQueryResp, false)
			var we *wire.WireError
			if !errors.As(err, &we) || we.Code != tc.want {
				t.Fatalf("Call error = %v, want a typed %v", err, tc.want)
			}
			if err := <-next; !errors.Is(err, io.EOF) {
				t.Fatalf("dialer after the refused handshake: %v, want it to hang up", err)
			}
		})
	}
}

func TestTypedErrorAcrossWire(t *testing.T) {
	addr := startServer(t, echoHandler, ServeOptions{})
	c := New(addr, Options{})
	defer c.Close()
	_, err := c.Call(context.Background(), wire.MsgSchemaReq, []byte("ghost"), wire.MsgSchemaResp, true)
	if !errors.Is(err, wire.ErrUnknownTable) {
		t.Fatalf("err = %v, want ErrUnknownTable", err)
	}
	var we *wire.WireError
	if !errors.As(err, &we) || we.Table != "ghost" {
		t.Fatalf("typed error lost its table: %v", err)
	}
	_, err = c.Call(context.Background(), wire.MsgPubKeyReq, nil, wire.MsgPubKeyResp, true)
	if !errors.Is(err, wire.ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
}

// TestOutOfOrderResponses proves demultiplexing: a slow request issued
// first must not block a fast one issued second.
func TestOutOfOrderResponses(t *testing.T) {
	release := make(chan struct{})
	h := func(_ context.Context, mt wire.MsgType, body, _ []byte) (wire.MsgType, []byte, error) {
		if len(body) > 0 && body[0] == 's' {
			<-release
		}
		return wire.MsgShardQueryResp, body, nil
	}
	addr := startServer(t, h, ServeOptions{})
	c := New(addr, Options{})
	defer c.Close()
	ctx := context.Background()

	slowDone := make(chan error, 1)
	go func() {
		_, err := c.Call(ctx, wire.MsgShardQueryReq, []byte("slow"), wire.MsgShardQueryResp, true)
		slowDone <- err
	}()
	// The fast call completes while the slow one is parked in a worker.
	fastCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if _, err := c.Call(fastCtx, wire.MsgShardQueryReq, []byte("fast"), wire.MsgShardQueryResp, true); err != nil {
		t.Fatalf("fast call blocked behind slow one: %v", err)
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
}

func TestContextCancellationMidRequest(t *testing.T) {
	block := make(chan struct{})
	h := func(_ context.Context, mt wire.MsgType, body, _ []byte) (wire.MsgType, []byte, error) {
		<-block
		return wire.MsgShardQueryResp, body, nil
	}
	addr := startServer(t, h, ServeOptions{})
	c := New(addr, Options{})
	defer c.Close()
	defer close(block)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(ctx, wire.MsgShardQueryReq, []byte("hang"), wire.MsgShardQueryResp, true)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the request reach the server
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation not observed mid-request")
	}

	// An already-expired context fails before any I/O.
	expired, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := c.Call(expired, wire.MsgShardQueryReq, nil, wire.MsgShardQueryResp, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired ctx: %v", err)
	}
}

// TestRedialAfterServerRestart is the dead-cached-conn regression test:
// the old client kept a poisoned conn forever; Conn must redial.
func TestRedialAfterServerRestart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	var (
		conns   sync.WaitGroup
		connsMu sync.Mutex
		open    []net.Conn
	)
	serve := func(ln net.Listener) {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			connsMu.Lock()
			open = append(open, conn)
			connsMu.Unlock()
			conns.Add(1)
			go func() {
				defer conns.Done()
				defer conn.Close()
				ServeConn(conn, echoHandler, ServeOptions{})
			}()
		}
	}
	go serve(ln)

	c := New(addr, Options{RedialBackoff: 5 * time.Millisecond})
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Call(ctx, wire.MsgShardQueryReq, []byte("a"), wire.MsgShardQueryResp, true); err != nil {
		t.Fatal(err)
	}

	// Kill the server mid-session (listener and live connections), then
	// bring it back on the same port.
	ln.Close()
	connsMu.Lock()
	for _, nc := range open {
		nc.Close()
	}
	connsMu.Unlock()
	conns.Wait()
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	go serve(ln2)

	resp, err := c.Call(ctx, wire.MsgShardQueryReq, []byte("b"), wire.MsgShardQueryResp, true)
	if err != nil {
		t.Fatalf("idempotent call after restart: %v", err)
	}
	if string(resp) != "b" {
		t.Fatalf("resp = %q", resp)
	}
}

// TestNonIdempotentRetriesWhenNeverSent: after the server idle-drops the
// cached session, even a non-idempotent request must redial and retry,
// because the dead-session check fires before any bytes are written —
// the request provably never reached the server.
func TestNonIdempotentRetriesWhenNeverSent(t *testing.T) {
	addr := startServer(t, echoHandler, ServeOptions{IdleTimeout: 30 * time.Millisecond})
	c := New(addr, Options{RedialBackoff: 5 * time.Millisecond})
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Call(ctx, wire.MsgShardQueryReq, []byte("a"), wire.MsgShardQueryResp, false); err != nil {
		t.Fatal(err)
	}
	// Wait for the server to idle-drop the connection and the client's
	// readLoop to mark the session dead.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("session never died after server idle timeout")
		}
		time.Sleep(20 * time.Millisecond)
		c.mu.Lock()
		s := c.sess
		c.mu.Unlock()
		if s == nil {
			break // a previous call already dropped it
		}
		s.pendMu.Lock()
		dead := s.dead != nil
		s.pendMu.Unlock()
		if dead {
			break
		}
	}
	resp, err := c.Call(ctx, wire.MsgShardQueryReq, []byte("b"), wire.MsgShardQueryResp, false)
	if err != nil {
		t.Fatalf("non-idempotent call on dead session: %v (should retry: never sent)", err)
	}
	if string(resp) != "b" {
		t.Fatalf("resp = %q", resp)
	}
}

// TestIdleTimeoutDropsSlowloris: a peer that connects and never sends a
// complete frame is disconnected instead of pinning the goroutine.
func TestIdleTimeoutDropsSlowloris(t *testing.T) {
	done := make(chan struct{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		ServeConn(conn, echoHandler, ServeOptions{IdleTimeout: 50 * time.Millisecond})
		close(done)
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.Write([]byte{0x00}) // a lone length byte, never completed
	select {
	case <-done:
		// ServeConn returned: the goroutine is free.
	case <-time.After(5 * time.Second):
		t.Fatal("slowloris connection still pinned after idle timeout")
	}
}

// TestConcurrentPipelinedCalls hammers one Conn from many goroutines
// (run with -race).
func TestConcurrentPipelinedCalls(t *testing.T) {
	var served atomic.Int64
	h := func(_ context.Context, mt wire.MsgType, body, _ []byte) (wire.MsgType, []byte, error) {
		served.Add(1)
		return wire.MsgShardQueryResp, body, nil
	}
	addr := startServer(t, h, ServeOptions{MaxConcurrent: 4})
	c := New(addr, Options{})
	defer c.Close()
	ctx := context.Background()

	const goroutines, per = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				payload := []byte{byte(g), byte(i)}
				resp, err := c.Call(ctx, wire.MsgShardQueryReq, payload, wire.MsgShardQueryResp, true)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp, payload) {
					errs <- errors.New("response routed to the wrong caller")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := served.Load(); got != goroutines*per {
		t.Fatalf("served %d requests, want %d", got, goroutines*per)
	}
}

// TestHandlerCtxCancelledOnDisconnect proves the connection context
// reaches handlers and is cancelled when the peer goes away, so a
// long-running query stops burning CPU for a client that hung up.
func TestHandlerCtxCancelledOnDisconnect(t *testing.T) {
	started := make(chan struct{})
	cancelled := make(chan error, 1)
	h := func(ctx context.Context, mt wire.MsgType, body, _ []byte) (wire.MsgType, []byte, error) {
		close(started)
		select {
		case <-ctx.Done():
			cancelled <- ctx.Err()
		case <-time.After(5 * time.Second):
			cancelled <- nil
		}
		return wire.MsgShardQueryResp, nil, nil
	}
	addr := startServer(t, h, ServeOptions{})
	c := New(addr, Options{})
	go c.Call(context.Background(), wire.MsgShardQueryReq, []byte("x"), wire.MsgShardQueryResp, false)
	<-started
	c.Close() // client hangs up mid-request
	select {
	case err := <-cancelled:
		if err == nil {
			t.Fatal("handler context not cancelled after peer disconnect")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler never observed the disconnect")
	}
}

// TestBaseContextCancellation covers ServeOptions.BaseContext: when the
// server's root context is cancelled (shutdown), handlers blocked on
// ctx.Done unwind and answer, instead of running on with a context that
// outlives the server.
func TestBaseContextCancellation(t *testing.T) {
	base, cancel := context.WithCancel(context.Background())
	h := func(ctx context.Context, mt wire.MsgType, body, _ []byte) (wire.MsgType, []byte, error) {
		<-ctx.Done()
		return 0, nil, ctx.Err()
	}
	addr := startServer(t, h, ServeOptions{BaseContext: base})
	c := New(addr, Options{})
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), wire.MsgShardQueryReq, []byte("x"), wire.MsgShardQueryResp, true)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the call reach the handler
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call succeeded although the handler's context was cancelled")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("handler did not observe BaseContext cancellation")
	}
}

// TestResponsesBuiltInTheLentBuffer drives every way a handler can
// produce its response — appended to the buffer the connection lends,
// appended past that buffer's capacity, or a slice of its own (one the
// transport must neither modify nor keep) — through concurrent callers,
// and checks each caller gets its own bytes back. The lent buffers are
// recycled across requests, so a response that leaked into another's
// buffer shows as a mismatch.
func TestResponsesBuiltInTheLentBuffer(t *testing.T) {
	shared := bytes.Repeat([]byte("cached-delta-body."), 100)
	sharedCopy := append([]byte(nil), shared...)
	var inPlace atomic.Int64
	h := func(_ context.Context, mt wire.MsgType, body, out []byte) (wire.MsgType, []byte, error) {
		if len(out) != 0 || cap(out) < minFrameBuf {
			return 0, nil, fmt.Errorf("lent buffer has len %d cap %d", len(out), cap(out))
		}
		n := int(body[0])<<8 | int(body[1])
		switch body[2] {
		case 'a': // append n copies of the tag byte, wherever that lands
			if n <= cap(out) {
				inPlace.Add(1)
			}
			for i := 0; i < n; i++ {
				out = append(out, body[3])
			}
			return wire.MsgShardQueryResp, out, nil
		case 's': // a slice the handler owns and serves to everyone
			return wire.MsgShardQueryResp, shared, nil
		}
		return 0, nil, errors.New("unknown op")
	}
	c := New(startServer(t, h, ServeOptions{}), Options{})
	defer c.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				// Sizes climb past minFrameBuf, so early answers outgrow
				// the lent buffer and later ones fit the enlarged one.
				n := (i*97 + g*13) % 3000
				op, tag := byte('a'), byte('A'+g)
				if i%7 == 6 {
					op = 's'
				}
				resp, err := c.Call(ctx, wire.MsgShardQueryReq, []byte{byte(n >> 8), byte(n), op, tag}, wire.MsgShardQueryResp, true)
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				want := bytes.Repeat([]byte{tag}, n)
				if op == 's' {
					want = sharedCopy
				}
				if !bytes.Equal(resp, want) {
					t.Errorf("goroutine %d call %d (op %c, n %d): got %d bytes starting %q", g, i, op, n, len(resp), resp[:min(len(resp), 8)])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if !bytes.Equal(shared, sharedCopy) {
		t.Fatal("the transport wrote into a slice the handler owns")
	}
	if inPlace.Load() == 0 {
		t.Fatal("no response fitted the lent buffer: the in-place path was not exercised")
	}
}
