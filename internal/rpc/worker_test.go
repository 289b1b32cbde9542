package rpc

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgeauth/internal/wire"
)

// goroutineID names the calling goroutine, from the header line of its
// stack trace ("goroutine 42 [running]:"). Only the worker-lifecycle tests
// use it: which goroutine a handler runs on is exactly what they are about.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// workerLog records the goroutines a connection's handlers ran on.
type workerLog struct {
	mu   sync.Mutex
	seen map[string]bool
}

func (l *workerLog) note() {
	id := goroutineID()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen == nil {
		l.seen = make(map[string]bool)
	}
	l.seen[id] = true
}

func (l *workerLog) workers() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.seen)
}

// settleGoroutines waits for the process to be back at (or under) want
// goroutines: everything a closed connection started has exited.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the connection was dialled:\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeReusesWorkers pins the worker lifecycle of one server
// connection: a caller that waits for each answer is served by one
// goroutine however many requests it sends; k requests in flight at once
// start exactly k; what the connection has started it keeps using; past
// MaxConcurrent a request waits for a worker instead of getting one; and
// closing the peer leaves none of them behind.
func TestServeReusesWorkers(t *testing.T) {
	ctx := context.Background()

	t.Run("sequential", func(t *testing.T) {
		var log workerLog
		h := func(_ context.Context, _ wire.MsgType, body, _ []byte) (wire.MsgType, []byte, error) {
			log.note()
			return wire.MsgShardQueryResp, body, nil
		}
		addr := startServer(t, h, ServeOptions{})
		before := runtime.NumGoroutine()
		c := New(addr, Options{})
		for i := 0; i < 1000; i++ {
			if _, err := c.Call(ctx, wire.MsgShardQueryReq, []byte{byte(i)}, wire.MsgShardQueryResp, true); err != nil {
				t.Fatal(err)
			}
		}
		if n := log.workers(); n != 1 {
			t.Errorf("1,000 sequential requests ran on %d goroutines, want 1", n)
		}
		c.Close()
		settleGoroutines(t, before)
	})

	t.Run("concurrent", func(t *testing.T) {
		const k = 5
		var (
			log     workerLog
			started = make(chan struct{}, 2*k)
			release = make(chan struct{})
		)
		h := func(_ context.Context, _ wire.MsgType, body, _ []byte) (wire.MsgType, []byte, error) {
			log.note()
			if body[0] == 'b' {
				started <- struct{}{}
				<-release
			}
			return wire.MsgShardQueryResp, body, nil
		}
		addr := startServer(t, h, ServeOptions{MaxConcurrent: k})
		before := runtime.NumGoroutine()
		c := New(addr, Options{})
		call := func(body string) error {
			_, err := c.Call(ctx, wire.MsgShardQueryReq, []byte(body), wire.MsgShardQueryResp, true)
			return err
		}

		// k requests block in their handlers at the same time: k workers.
		done := make(chan error, k+1)
		for i := 0; i < k; i++ {
			go func() { done <- call("block") }()
		}
		for i := 0; i < k; i++ {
			<-started
		}
		if n := log.workers(); n != k {
			t.Fatalf("%d requests in flight on %d goroutines, want %d", k, n, k)
		}

		// Request k+1 reaches the server and waits there: no handler starts
		// while all k workers are taken.
		go func() { done <- call("block") }()
		select {
		case <-started:
			t.Fatalf("request %d started with %d handlers running and MaxConcurrent = %d", k+1, k, k)
		case <-time.After(100 * time.Millisecond):
		}
		// One handler finishes; the waiting request takes its worker.
		release <- struct{}{}
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("the waiting request never ran after a worker came free")
		}
		close(release)
		for i := 0; i < k+1; i++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}

		// The connection's later traffic runs on the workers it has.
		for i := 0; i < 200; i++ {
			if err := call("quick"); err != nil {
				t.Fatal(err)
			}
		}
		if n := log.workers(); n != k {
			t.Errorf("the connection has used %d goroutines, want the same %d throughout", n, k)
		}
		c.Close()
		settleGoroutines(t, before)
	})

	// Closing the peer cancels the handlers' context BEFORE the drain: these
	// handlers return on nothing else, so a drain that came first would
	// never end and ServeConn would never return.
	t.Run("peer closes", func(t *testing.T) {
		const k = 3
		var running sync.WaitGroup
		running.Add(k)
		h := func(ctx context.Context, _ wire.MsgType, _, _ []byte) (wire.MsgType, []byte, error) {
			running.Done()
			<-ctx.Done()
			return 0, nil, ctx.Err()
		}
		before := runtime.NumGoroutine()
		server, client := net.Pipe()
		returned := make(chan struct{})
		go func() {
			defer close(returned)
			defer server.Close()
			ServeConn(server, h, ServeOptions{})
		}()
		s, err := (&Conn{}).handshake(client)
		if err != nil {
			t.Fatal(err)
		}
		c := &Conn{sess: s}
		for i := 0; i < k; i++ {
			go c.Call(ctx, wire.MsgShardQueryReq, nil, wire.MsgShardQueryResp, false)
		}
		running.Wait()
		c.Close()
		select {
		case <-returned:
		case <-time.After(5 * time.Second):
			t.Fatal("ServeConn did not return after the peer closed: handlers were not cancelled ahead of the drain")
		}
		settleGoroutines(t, before)
	})
}

// countingConn counts the Read calls that returned data.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// TestOneReadPerFrame: past the handshake, a frame that fits the
// connection's read buffer is one Read of the connection, on the server's
// loop and on the client's — it was two, the length word and then the
// body. The connection is a net.Pipe, where a Read returns what one Write
// delivered and nothing is coalesced, so the count is exact.
func TestOneReadPerFrame(t *testing.T) {
	ctx := context.Background()
	// Frame sizes end to end, header included; 4 KiB is a point answer.
	sizes := []int{wire.FrameHeaderSize, 100, 1000, 4 << 10}
	// The handler answers in the buffer it is lent, so each response
	// leaves in one Write, as the edge's answers do.
	h := func(_ context.Context, _ wire.MsgType, body, out []byte) (wire.MsgType, []byte, error) {
		return wire.MsgShardQueryResp, append(out, body...), nil
	}
	payload := func(frameSize int) []byte {
		return bytes.Repeat([]byte{byte(frameSize)}, frameSize-wire.FrameHeaderSize)
	}

	t.Run("server", func(t *testing.T) {
		server, client := net.Pipe()
		defer client.Close()
		counted := &countingConn{Conn: server}
		go func() {
			defer server.Close()
			ServeConn(counted, h, ServeOptions{})
		}()
		if err := wire.WriteFrame(client, wire.MsgHello, wire.EncodeHelloCaps(wire.ProtocolVersion, 0)); err != nil {
			t.Fatal(err)
		}
		if mt, _, err := wire.ReadFrame(client); err != nil || mt != wire.MsgHelloResp {
			t.Fatalf("handshake: %v, %v", mt, err)
		}
		// The Hello was read unbuffered: its length word, then its body.
		if n := counted.reads.Load(); n != 2 {
			t.Fatalf("the handshake took %d reads, want 2", n)
		}
		for i, size := range sizes {
			before := counted.reads.Load()
			var frame bytes.Buffer
			if err := wire.WriteFrameV2(&frame, wire.MsgShardQueryReq, uint32(i), payload(size)); err != nil {
				t.Fatal(err)
			}
			if _, err := client.Write(frame.Bytes()); err != nil {
				t.Fatal(err)
			}
			_, id, body, err := wire.ReadFrameV2(client)
			if err != nil || id != uint32(i) || !bytes.Equal(body, payload(size)) {
				t.Fatalf("%d-byte frame: id %d, %d bytes back, err %v", size, id, len(body), err)
			}
			if n := counted.reads.Load() - before; n != 1 {
				t.Errorf("a %d-byte request frame took %d reads, want 1", size, n)
			}
		}
	})

	t.Run("client", func(t *testing.T) {
		server, client := net.Pipe()
		go func() {
			defer server.Close()
			ServeConn(server, h, ServeOptions{})
		}()
		counted := &countingConn{Conn: client}
		s, err := (&Conn{}).handshake(counted)
		if err != nil {
			t.Fatal(err)
		}
		c := &Conn{sess: s}
		defer c.Close()
		if n := counted.reads.Load(); n != 2 {
			t.Fatalf("the handshake took %d reads, want 2", n)
		}
		for _, size := range sizes {
			before := counted.reads.Load()
			body, err := c.Call(ctx, wire.MsgShardQueryReq, payload(size), wire.MsgShardQueryResp, true)
			if err != nil || !bytes.Equal(body, payload(size)) {
				t.Fatalf("%d-byte frame: %d bytes back, err %v", size, len(body), err)
			}
			if n := counted.reads.Load() - before; n != 1 {
				t.Errorf("a %d-byte response frame took %d reads, want 1", size, n)
			}
		}
		// A body larger than the read buffer arrives whole and is the
		// caller's own: the next frame through the buffer leaves it alone.
		big := bytes.Repeat([]byte("0123456789abcdef"), 3*readBufSize/16)
		got, err := c.Call(ctx, wire.MsgShardQueryReq, big, wire.MsgShardQueryResp, true)
		if err != nil || !bytes.Equal(got, big) {
			t.Fatalf("%d-byte body: %d bytes back, err %v", len(big), len(got), err)
		}
		if _, err := c.Call(ctx, wire.MsgShardQueryReq, payload(1000), wire.MsgShardQueryResp, true); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, big) {
			t.Error("a body returned to its caller changed when the next frame was read")
		}
	})
}

// TestRequestInTheHelloSegment: a dialer may write its first request
// right behind its Hello, and TCP may deliver both in one segment. The
// handshake must consume the Hello's bytes and no more — the buffered
// reader that takes over afterwards starts exactly at the request — so
// the request is served, not lost inside a reader that was thrown away or
// mistaken for part of the Hello.
func TestRequestInTheHelloSegment(t *testing.T) {
	nc, err := net.Dial("tcp", startServer(t, echoHandler, ServeOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	var both bytes.Buffer
	if err := wire.WriteFrame(&both, wire.MsgHello, wire.EncodeHelloCaps(wire.ProtocolVersion, 0)); err != nil {
		t.Fatal(err)
	}
	for id := uint32(1); id <= 2; id++ {
		if err := wire.WriteFrameV2(&both, wire.MsgShardQueryReq, id, []byte{'r', byte(id)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nc.Write(both.Bytes()); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := wire.ReadFrame(nc); err != nil || mt != wire.MsgHelloResp {
		t.Fatalf("handshake: %v, %v", mt, err)
	}
	answered := map[uint32]bool{}
	for i := 0; i < 2; i++ {
		mt, id, body, err := wire.ReadFrameV2(nc)
		if err != nil || mt != wire.MsgShardQueryResp || !bytes.Equal(body, []byte{'r', byte(id)}) {
			t.Fatalf("response: mt=%v id=%d body=%q err=%v", mt, id, body, err)
		}
		answered[id] = true
	}
	if !answered[1] || !answered[2] {
		t.Fatalf("requests answered: %v, want both", answered)
	}
}
