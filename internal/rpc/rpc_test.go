package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
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

// releaser returns a func that closes ch the first time it is called,
// and calls it when the test ends: a test that fails while a handler is
// parked on ch still lets that handler return.
func releaser(t testing.TB, ch chan struct{}) func() {
	var once sync.Once
	release := func() { once.Do(func() { close(ch) }) }
	t.Cleanup(release)
	return release
}

// startServer serves connections with h until the test ends.
func startServer(t testing.TB, h Handler, o ServeOptions) string {
	t.Helper()
	return startCountedServer(t, h, o).addr
}

// testServer serves connections with one handler and counts them: one
// accepted for each session a Conn has opened to it, one closed each time
// ServeConn has returned and the connection is closed.
type testServer struct {
	addr     string
	accepted atomic.Int64

	mu     sync.Mutex
	closed int
	// closing is closed, and replaced, each time a connection closes.
	closing chan struct{}
}

// startCountedServer is startServer that also counts the connections it
// accepts and closes.
func startCountedServer(t testing.TB, h Handler, o ServeOptions) *testServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &testServer{addr: ln.Addr().String(), closing: make(chan struct{})}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.accepted.Add(1)
			go func() {
				ServeConn(context.Background(), conn, h, o)
				conn.Close()
				s.mu.Lock()
				s.closed++
				close(s.closing)
				s.closing = make(chan struct{})
				s.mu.Unlock()
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return s
}

// waitClosed waits until the server has closed n connections in all.
func (s *testServer) waitClosed(t testing.TB, n int) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		s.mu.Lock()
		closed, closing := s.closed, s.closing
		s.mu.Unlock()
		if closed >= n {
			return
		}
		select {
		case <-closing:
		case <-timeout:
			t.Fatalf("the server closed %d connections, want %d", closed, n)
		}
	}
}

func TestHandshakeAndCall(t *testing.T) {
	if wire.ProtocolVersion != 10 {
		t.Fatalf("this build speaks protocol %d; the handshake tests are written for 10", wire.ProtocolVersion)
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

// frameBytes is one frame as it leaves the socket.
func frameBytes(t testing.TB, mt wire.MsgType, id uint32, body []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := wire.WriteFrame(&b, mt, id, body); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// bareFrame is one frame of the handshake framing of protocol 9 and
// before — u32 len | u8 type | body, no request ID — as a build of that
// generation sends it.
func bareFrame(mt wire.MsgType, body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(1+len(body))), append([]byte{byte(mt)}, body...)...)
}

// TestHandshakeRejectsOtherProtocols: there is one protocol generation.
// A server answers a connection that does not open with a well-formed
// Hello on request 0 offering ProtocolVersion with one typed error frame
// and hangs up; a dialer treats any reply but a HelloResp on request 0
// carrying ProtocolVersion as a dial error. Neither side downgrades — not
// even to 9, the generation just before, whose bare Hello carries a
// capability word and no request ID; or to 8, whose clients take an
// edge's rows as already filtered; or to 7, whose nodes commit through an
// in-node tree of arity 8 where this build's has arity 3; or to 6, whose
// heap records commit a tuple to a digest per column and whose VOs ship
// one D_P digest per omitted column where this build commits through a
// column tree; or to 5, whose Merkle pages and VOs commit by the
// combiner; or to 4, whose snapshots and schema responses carry an
// accumulator block this build no longer reads. The version-9 rows are
// the raw bytes such a build sends, in both directions: each ends in a
// dial error and no request is served.
func TestHandshakeRejectsOtherProtocols(t *testing.T) {
	type row struct {
		name string
		// open is what a raw dialer sends a real ServeConn first; reply
		// is what a fake server answers a real Conn's Hello with. Exactly
		// one is set.
		open, reply []byte
		want        wire.ErrCode
	}
	cases := []row{
		{name: "non-hello first frame", open: frameBytes(t, wire.MsgShardQueryReq, 0, []byte("x")), want: wire.CodeUnsupported},
		{name: "hello on request 1", open: frameBytes(t, wire.MsgHello, 1, wire.EncodeHello(wire.ProtocolVersion)), want: wire.CodeUnsupported},
		// The bare 4-byte-body Hello of the earliest generations: its
		// version word reads as request 2.
		{name: "4-byte hello body", open: bareFrame(wire.MsgHello, []byte{0, 0, 0, 2}), want: wire.CodeUnsupported},
		// A version word and the capability word protocol 9 carried.
		{name: "8-byte hello body", open: frameBytes(t, wire.MsgHello, 0, []byte{0, 0, 0, 10, 0, 0, 0, 1}), want: wire.CodeBadRequest},
		// What a version-9 dialer sends, plain and serving peers: its
		// version word reads as request 9.
		{name: "version-9 dialer", open: bareFrame(wire.MsgHello, []byte{0, 0, 0, 9, 0, 0, 0, 0}), want: wire.CodeUnsupported},
		{name: "version-9 peer-serving dialer", open: bareFrame(wire.MsgHello, []byte{0, 0, 0, 9, 0, 0, 0, 1}), want: wire.CodeUnsupported},
		{name: "hello-resp on request 1", reply: frameBytes(t, wire.MsgHelloResp, 1, wire.EncodeHello(wire.ProtocolVersion)), want: wire.CodeUnsupported},
		{name: "error reply to hello", reply: frameBytes(t, wire.MsgError, 0, wire.Unsupported("test", wire.MsgHello).Encode()), want: wire.CodeUnsupported},
		// What a version-9 server sends: its HelloResp to a version-9
		// Hello, and its refusal of this build's Hello, whose request ID
		// it reads as version 0. The first word of either body reads as
		// a request ID that is not 0.
		{name: "version-9 server hello-resp", reply: bareFrame(wire.MsgHelloResp, []byte{0, 0, 0, 9, 0, 0, 0, 0}), want: wire.CodeUnsupported},
		{name: "version-9 server refusal", reply: bareFrame(wire.MsgError,
			(&wire.WireError{Code: wire.CodeBadRequest, Msg: "rpc: wire: protocol version 0"}).Encode()), want: wire.CodeUnsupported},
	}
	for v := uint32(1); v < wire.ProtocolVersion; v++ {
		cases = append(cases,
			row{name: fmt.Sprintf("hello max version %d", v), open: frameBytes(t, wire.MsgHello, 0, wire.EncodeHello(v)), want: wire.CodeUnsupported},
			row{name: fmt.Sprintf("hello-resp negotiating %d", v), reply: frameBytes(t, wire.MsgHelloResp, 0, wire.EncodeHello(v)), want: wire.CodeUnsupported})
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
				if _, err := nc.Write(tc.open); err != nil {
					t.Fatal(err)
				}
				// The type byte stands where a bare frame has it too, so a
				// version-9 dialer also reads an error frame: a refusal.
				mt, id, body, err := wire.ReadFrame(nc)
				if err != nil || mt != wire.MsgError || id != 0 {
					t.Fatalf("reply: mt=%v id=%d err=%v, want one error frame on request 0", mt, id, err)
				}
				if got := wire.DecodeWireError(body); got.Code != tc.want {
					t.Fatalf("error code = %v (%v), want %v", got.Code, got, tc.want)
				}
				if _, _, _, err := wire.ReadFrame(nc); !errors.Is(err, io.EOF) {
					t.Fatalf("after the error frame: %v, want a closed connection", err)
				}
				if n := handled.Load(); n != 0 {
					t.Fatalf("handler ran %d times for a refused connection", n)
				}
				return
			}

			// A fake server: read the Hello, answer tc.reply, then report
			// whatever the dialer does next (it must hang up). Each dial
			// gets the script, though a refused Call makes only one.
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			script := func(nc net.Conn) error {
				defer nc.Close()
				nc.SetDeadline(time.Now().Add(5 * time.Second))
				if mt, id, _, err := wire.ReadFrame(nc); err != nil || mt != wire.MsgHello || id != 0 {
					return fmt.Errorf("first frame: mt=%v id=%d err=%v", mt, id, err)
				}
				if _, err := nc.Write(tc.reply); err != nil {
					return err
				}
				_, _, _, err := wire.ReadFrame(nc)
				return err
			}
			next := make(chan error, 2*redialAttempts)
			var accepted atomic.Int64
			go func() {
				for {
					nc, err := ln.Accept()
					if err != nil {
						return
					}
					accepted.Add(1)
					next <- script(nc)
				}
			}()
			c := New(ln.Addr().String(), Options{})
			defer c.Close()
			_, err = c.Call(context.Background(), wire.MsgShardQueryReq, []byte("x"), wire.MsgShardQueryResp, false)
			var we *wire.WireError
			if !errors.As(err, &we) || we.Code != tc.want {
				t.Fatalf("Call error = %v, want a typed %v", err, tc.want)
			}
			if err := <-next; !errors.Is(err, io.EOF) {
				t.Fatalf("dialer after the refused handshake: %v, want it to hang up", err)
			}
			// A refusal is final: no redial, no retry. Every dial the
			// Call made was answered before it returned, so the count
			// is complete.
			if n := accepted.Load(); n != 1 {
				t.Fatalf("the refusing server was dialled %d times, want 1", n)
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

// TestOutOfOrderResponses: a slow request issued first must not block a
// fast one issued second; the fast call takes a session of its own.
func TestOutOfOrderResponses(t *testing.T) {
	release := make(chan struct{})
	releaseSlow := releaser(t, release)
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
	// The fast call completes while the slow one is parked in its handler.
	fastCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if _, err := c.Call(fastCtx, wire.MsgShardQueryReq, []byte("fast"), wire.MsgShardQueryResp, true); err != nil {
		t.Fatalf("fast call blocked behind slow one: %v", err)
	}
	releaseSlow()
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
}

func TestContextCancellationMidRequest(t *testing.T) {
	entered, block := make(chan struct{}, 1), make(chan struct{})
	h := func(_ context.Context, mt wire.MsgType, body, _ []byte) (wire.MsgType, []byte, error) {
		entered <- struct{}{}
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
	<-entered // the request is in the handler: cancel mid-request
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
				ServeConn(context.Background(), conn, echoHandler, ServeOptions{})
			}()
		}
	}
	go serve(ln)

	c := New(addr, Options{})
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
// idle session, even a non-idempotent request must succeed on a fresh
// one, because the dead-session check fires before any bytes are written
// — the request provably never reached the server.
func TestNonIdempotentRetriesWhenNeverSent(t *testing.T) {
	srv := startCountedServer(t, echoHandler, ServeOptions{IdleTimeout: 30 * time.Millisecond})
	c := New(srv.addr, Options{})
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Call(ctx, wire.MsgShardQueryReq, []byte("a"), wire.MsgShardQueryResp, false); err != nil {
		t.Fatal(err)
	}
	// Wait for the server to idle-drop the connection.
	srv.waitClosed(t, 1)
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
		ServeConn(context.Background(), conn, echoHandler, ServeOptions{IdleTimeout: 50 * time.Millisecond})
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
	addr := startServer(t, h, ServeOptions{})
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

// TestHandlerCtxOutlivesItsPeer: nothing reads a connection while its
// handler runs, so a peer that hangs up mid-request does not cancel the
// handler's context (Server.Close and ServeConn's ctx do, see
// TestCloseCancelsAndWaitsForHandlers and TestBaseContextCancellation).
// The server finds the peer gone once the handler returns, and closes the
// connection.
func TestHandlerCtxOutlivesItsPeer(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	releaseHandler := releaser(t, release)
	ctxErr := make(chan error, 1)
	h := func(ctx context.Context, mt wire.MsgType, body, _ []byte) (wire.MsgType, []byte, error) {
		close(started)
		<-release
		ctxErr <- ctx.Err()
		return wire.MsgShardQueryResp, body, nil
	}
	srv := startCountedServer(t, h, ServeOptions{})
	c := New(srv.addr, Options{})
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), wire.MsgShardQueryReq, []byte("x"), wire.MsgShardQueryResp, false)
		done <- err
	}()
	<-started
	c.Close() // the client hangs up mid-request
	if err := <-done; err == nil {
		t.Fatal("a call on a closed Conn succeeded")
	}
	releaseHandler()
	if err := <-ctxErr; err != nil {
		t.Fatalf("the handler's context ended with its peer: %v", err)
	}
	srv.waitClosed(t, 1)
}

// TestBaseContextCancellation covers ServeConn's ctx: when the context
// a connection is served under is cancelled (server shutdown), handlers
// blocked on ctx.Done unwind and answer, instead of running on with a
// context that outlives the server.
func TestBaseContextCancellation(t *testing.T) {
	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	entered := make(chan struct{}, 1)
	h := func(ctx context.Context, mt wire.MsgType, body, _ []byte) (wire.MsgType, []byte, error) {
		entered <- struct{}{}
		<-ctx.Done()
		return 0, nil, ctx.Err()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		ServeConn(base, conn, h, ServeOptions{})
	}()
	c := New(ln.Addr().String(), Options{})
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), wire.MsgShardQueryReq, []byte("x"), wire.MsgShardQueryResp, true)
		done <- err
	}()
	<-entered
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call succeeded although the handler's context was cancelled")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("handler did not observe the cancellation of ServeConn's context")
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
