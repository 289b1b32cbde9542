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
// stack trace ("goroutine 42 [running]:"). Only the serve-loop tests use
// it: which goroutine a handler runs on is exactly what they are about.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// goroutineLog records the goroutines a connection's handlers ran on.
type goroutineLog struct {
	mu   sync.Mutex
	seen map[string]bool
}

func (l *goroutineLog) note() {
	id := goroutineID()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen == nil {
		l.seen = make(map[string]bool)
	}
	l.seen[id] = true
}

// only returns the one goroutine noted, or "" when there were others.
func (l *goroutineLog) only() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.seen) == 1 {
		for id := range l.seen {
			return id
		}
	}
	return ""
}

// connOver handshakes over nc and returns a Conn whose one idle session
// is nc: its calls take that session and never dial, so a test can hand
// it any connection.
func connOver(t *testing.T, nc net.Conn) *Conn {
	t.Helper()
	s, err := handshake(nc)
	if err != nil {
		t.Fatal(err)
	}
	c := New("", Options{})
	c.open[s] = struct{}{}
	c.idle = []*session{s}
	return c
}

// goroutinesIn counts the goroutines whose stack has a frame of any of
// the named functions.
func goroutinesIn(funcs ...string) int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
		for _, f := range funcs {
			if bytes.Contains(g, []byte(f)) {
				n++
				break
			}
		}
	}
	return n
}

// serving counts the goroutines serving a connection.
func serving() int { return goroutinesIn("edgeauth/internal/rpc.ServeConn(") }

// settleGoroutines waits for count to fall to (or under) want:
// goroutines that were told to stop have exited.
func settleGoroutines(t *testing.T, count func() int, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for count() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want %d:\n%s", count(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeRunsRequestsOnItsConnectionGoroutine: a server connection
// runs every handler on the goroutine that called ServeConn, one request
// at a time. A caller that waits for each answer is served there however
// many requests it sends; a peer that pipelines requests is answered in
// the order it sent them, and no handler starts before the one ahead of
// it has returned.
func TestServeRunsRequestsOnItsConnectionGoroutine(t *testing.T) {
	ctx := context.Background()

	t.Run("sequential", func(t *testing.T) {
		var log goroutineLog
		h := func(_ context.Context, _ wire.MsgType, body, _ []byte) (wire.MsgType, []byte, error) {
			log.note()
			return wire.MsgShardQueryResp, body, nil
		}
		server, client := net.Pipe()
		serving := make(chan string, 1)
		go func() {
			defer server.Close()
			serving <- goroutineID()
			ServeConn(ctx, server, h, ServeOptions{})
		}()
		c := connOver(t, client)
		defer c.Close()
		for i := 0; i < 1000; i++ {
			if _, err := c.Call(ctx, wire.MsgShardQueryReq, []byte{byte(i)}, wire.MsgShardQueryResp, true); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := log.only(), <-serving; got != want {
			t.Errorf("1,000 requests ran on goroutine %q, want only ServeConn's, %s", got, want)
		}
	})

	t.Run("pipelined", func(t *testing.T) {
		const k = 16
		var (
			log              goroutineLog
			mu               sync.Mutex // guards running, maxSeen and order
			running, maxSeen int
			order            []byte
		)
		h := func(_ context.Context, _ wire.MsgType, body, _ []byte) (wire.MsgType, []byte, error) {
			log.note()
			mu.Lock()
			running++
			maxSeen = max(maxSeen, running)
			order = append(order, body[0])
			mu.Unlock()
			runtime.Gosched() // give a second handler the chance to overlap
			mu.Lock()
			running--
			mu.Unlock()
			return wire.MsgShardQueryResp, body, nil
		}
		nc, err := net.Dial("tcp", startServer(t, h, ServeOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		var all bytes.Buffer
		if err := wire.WriteFrame(&all, wire.MsgHello, 0, wire.EncodeHello(wire.ProtocolVersion)); err != nil {
			t.Fatal(err)
		}
		for id := uint32(1); id <= k; id++ {
			if err := wire.WriteFrame(&all, wire.MsgShardQueryReq, id, []byte{byte(id)}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := nc.Write(all.Bytes()); err != nil {
			t.Fatal(err)
		}
		if mt, _, _, err := wire.ReadFrame(nc); err != nil || mt != wire.MsgHelloResp {
			t.Fatalf("handshake: %v, %v", mt, err)
		}
		for want := uint32(1); want <= k; want++ {
			mt, id, body, err := wire.ReadFrame(nc)
			if err != nil || mt != wire.MsgShardQueryResp || id != want || !bytes.Equal(body, []byte{byte(want)}) {
				t.Fatalf("response %d: mt=%v id=%d body=%v err=%v", want, mt, id, body, err)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		for i, b := range order {
			if b != byte(i+1) {
				t.Fatalf("handlers ran in the order %v, want the requests' order", order)
			}
		}
		if n := maxSeen; n != 1 {
			t.Errorf("%d handlers ran at once on one connection, want 1", n)
		}
		if log.only() == "" {
			t.Error("one connection's requests ran on more than one goroutine")
		}
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
			ServeConn(context.Background(), counted, h, ServeOptions{})
		}()
		if err := wire.WriteFrame(client, wire.MsgHello, 0, wire.EncodeHello(wire.ProtocolVersion)); err != nil {
			t.Fatal(err)
		}
		if mt, _, _, err := wire.ReadFrame(client); err != nil || mt != wire.MsgHelloResp {
			t.Fatalf("handshake: %v, %v", mt, err)
		}
		// The Hello is a frame like the rest: one read.
		if n := counted.reads.Load(); n != 1 {
			t.Fatalf("the handshake took %d reads, want 1", n)
		}
		for i, size := range sizes {
			before := counted.reads.Load()
			var frame bytes.Buffer
			if err := wire.WriteFrame(&frame, wire.MsgShardQueryReq, uint32(i), payload(size)); err != nil {
				t.Fatal(err)
			}
			if _, err := client.Write(frame.Bytes()); err != nil {
				t.Fatal(err)
			}
			_, id, body, err := wire.ReadFrame(client)
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
			ServeConn(context.Background(), server, h, ServeOptions{})
		}()
		counted := &countingConn{Conn: client}
		c := connOver(t, counted)
		defer c.Close()
		if n := counted.reads.Load(); n != 1 {
			t.Fatalf("the handshake took %d reads, want 1", n)
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
// Hello is read through the buffered reader that reads every later frame,
// so whatever arrived behind it is the next frame — the request is
// served, not lost inside a reader that was thrown away or mistaken for
// part of the Hello.
func TestRequestInTheHelloSegment(t *testing.T) {
	nc, err := net.Dial("tcp", startServer(t, echoHandler, ServeOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	var both bytes.Buffer
	if err := wire.WriteFrame(&both, wire.MsgHello, 0, wire.EncodeHello(wire.ProtocolVersion)); err != nil {
		t.Fatal(err)
	}
	for id := uint32(1); id <= 2; id++ {
		if err := wire.WriteFrame(&both, wire.MsgShardQueryReq, id, []byte{'r', byte(id)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nc.Write(both.Bytes()); err != nil {
		t.Fatal(err)
	}
	if mt, _, _, err := wire.ReadFrame(nc); err != nil || mt != wire.MsgHelloResp {
		t.Fatalf("handshake: %v, %v", mt, err)
	}
	answered := map[uint32]bool{}
	for i := 0; i < 2; i++ {
		mt, id, body, err := wire.ReadFrame(nc)
		if err != nil || mt != wire.MsgShardQueryResp || !bytes.Equal(body, []byte{'r', byte(id)}) {
			t.Fatalf("response: mt=%v id=%d body=%q err=%v", mt, id, body, err)
		}
		answered[id] = true
	}
	if !answered[1] || !answered[2] {
		t.Fatalf("requests answered: %v, want both", answered)
	}
}
