package rpc

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"edgeauth/internal/wire"
)

// DefaultIdleTimeout is the idle window of ServeOptions' zero value.
const DefaultIdleTimeout = 2 * time.Minute

// Handler executes one decoded request and returns the response frame's
// type and body. Returning an error sends a typed error frame instead;
// return a *wire.WireError to control the code the client sees.
//
// A handler runs on the goroutine that serves its connection, between
// reading the request and writing the response, so a connection's
// requests run one at a time and are answered in the order they came.
// Nothing reads from the connection while a handler runs: ctx is
// cancelled by Server.Close or with the context ServeConn was given, not
// when the peer hangs up, and a peer that is gone is found when the
// response is written. (A peer could always hold its connection open for
// as long as a handler runs, so this lets it cost the server nothing
// more.) Anything a handler leaves on the goroutine — a held lock, a
// runtime.LockOSThread — meets the connection's next request, and a
// handler that never returns ends its connection's service.
//
// out is an empty buffer the connection reuses from response to
// response, with room for the frame header in front of it. A handler
// that builds its response by appending to out and returns the result
// costs no allocation once the buffer has grown to the connection's
// responses, and header and body leave in one Write; out is only valid
// until the handler returns. Any other slice it returns is written as it
// is and never modified or kept.
type Handler func(ctx context.Context, mt wire.MsgType, body, out []byte) (wire.MsgType, []byte, error)

// ServeOptions configures per-connection dispatch.
type ServeOptions struct {
	// IdleTimeout closes a connection when no complete request frame
	// arrives within the window — a hung or slowloris peer cannot pin the
	// connection goroutine forever. 0 selects DefaultIdleTimeout;
	// negative disables the deadline.
	IdleTimeout time.Duration
}

// Server serves connections accepted on any number of listeners through
// ServeConn with one handler, until Close: the listening side of both
// daemons, and of a proxy in front of an edge.
type Server struct {
	h      Handler
	o      ServeOptions
	ctx    context.Context // parents every handler's and Go task's; Close cancels it
	cancel context.CancelFunc

	mu     sync.Mutex
	held   map[io.Closer]struct{} // listeners and live connections
	closed bool
	wg     sync.WaitGroup // Go tasks, connections among them
}

// NewServer returns a server that answers every request with h.
func NewServer(h Handler, o ServeOptions) *Server {
	ctx, cancel := context.WithCancel(context.Background()) //vetauth:ignore ctxflow server root context, cancelled by Close
	return &Server{h: h, o: o, ctx: ctx, cancel: cancel, held: make(map[io.Closer]struct{})}
}

// Serve accepts connections on l until l fails or the server closes. A
// listener handed to a closed server is closed at once, and so is a
// connection accepted while Close runs.
func (s *Server) Serve(l net.Listener) {
	if !s.hold(l) {
		l.Close()
		return
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		if !s.hold(conn) {
			conn.Close()
			return
		}
		s.Go(func(ctx context.Context) {
			defer s.release(conn)
			ServeConn(ctx, conn, s.h, s.o)
		})
	}
}

// Go runs f on a goroutine the server owns: f's ctx is cancelled by
// Close, which returns only after f has. On a closed server f never runs.
func (s *Server) Go(f func(ctx context.Context)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		f(s.ctx)
	}()
}

// hold registers c for Close to close; false once Close has run.
func (s *Server) hold(c io.Closer) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.held[c] = struct{}{}
	}
	return !s.closed
}

// release closes a held connection its handler is done with.
func (s *Server) release(c io.Closer) {
	c.Close()
	s.mu.Lock()
	delete(s.held, c)
	s.mu.Unlock()
}

// Close cancels every handler's context, closes the listeners and the
// live connections (a peer may hold a pooled one open indefinitely) and
// returns once every handler and Go task has. Close is idempotent.
func (s *Server) Close() {
	s.cancel()
	s.mu.Lock()
	s.closed = true
	for c := range s.held {
		c.Close()
	}
	s.held = nil
	s.mu.Unlock()
	s.wg.Wait()
}

func (o ServeOptions) idleTimeout() time.Duration {
	switch {
	case o.IdleTimeout == 0:
		return DefaultIdleTimeout
	case o.IdleTimeout < 0:
		return 0
	default:
		return o.IdleTimeout
	}
}

// ServeConn drives one accepted connection until it closes: it completes
// the Hello handshake, then serves requests through h one after another
// on this goroutine, each with ctx, and writes each response tagged with
// its request ID. A peer whose first frame is not a well-formed Hello on
// request 0 offering wire.ProtocolVersion gets one typed error frame and
// ServeConn returns (the caller closes the connection). ServeConn also
// returns when the peer disconnects, idles out, sends a malformed frame
// or stops taking responses.
func ServeConn(ctx context.Context, conn net.Conn, h Handler, o ServeOptions) {
	idle := o.idleTimeout()
	setIdleDeadline(conn, idle)
	// The Hello is read through the reader serve goes on with, so a
	// request that arrived behind it is kept.
	br := bufio.NewReaderSize(conn, readBufSize)
	mt, id, body, err := wire.ReadFrame(br)
	if err != nil {
		return
	}
	setWriteDeadline(conn, idle)
	if err := checkHello(mt, id, body); err != nil {
		// Best effort: the connection is dropped whether or not the
		// refusal reaches the peer.
		_ = wire.WriteFrame(conn, wire.MsgError, 0, err.Encode())
		return
	}
	if err := wire.WriteFrame(conn, wire.MsgHelloResp, 0, wire.EncodeHello(wire.ProtocolVersion)); err != nil {
		return
	}
	serve(ctx, conn, br, h, idle)
}

// checkHello validates a connection's first frame: a Hello on request 0
// whose sender speaks at least wire.ProtocolVersion.
func checkHello(mt wire.MsgType, id uint32, body []byte) *wire.WireError {
	if mt != wire.MsgHello {
		return wire.Unsupported("rpc", mt)
	}
	if id != 0 {
		// A version-9 dialer's bare Hello, read as a frame, puts its
		// version word here.
		return &wire.WireError{Code: wire.CodeUnsupported,
			Msg: fmt.Sprintf("rpc: peer does not speak protocol %d: its hello is request %d, not 0", wire.ProtocolVersion, id)}
	}
	theirMax, err := wire.DecodeHello(body)
	if err != nil {
		return &wire.WireError{Code: wire.CodeBadRequest, Msg: "rpc: " + err.Error()}
	}
	if theirMax < wire.ProtocolVersion {
		return &wire.WireError{Code: wire.CodeUnsupported,
			Msg: fmt.Sprintf("rpc: peer speaks protocol %d at most, this build speaks only %d", theirMax, wire.ProtocolVersion)}
	}
	return nil
}

func setIdleDeadline(conn net.Conn, idle time.Duration) {
	if idle > 0 {
		conn.SetReadDeadline(time.Now().Add(idle))
	}
}

// setWriteDeadline bounds one response write by the idle window, so a
// peer that sends requests but never drains responses cannot pin the
// connection's goroutine forever.
func setWriteDeadline(conn net.Conn, idle time.Duration) {
	if idle > 0 {
		conn.SetWriteDeadline(time.Now().Add(idle))
	}
}

const (
	// minFrameBuf is the smallest response buffer handed to a handler.
	minFrameBuf = 512
	// maxKeptFrame bounds the responses a connection sizes its buffer
	// for: past it (bulk replication payloads) a response is allocated
	// and dropped, not kept for the next one.
	maxKeptFrame = 1 << 18
)

// readBufSize is the per-connection read buffer of both ends. Every frame
// is read through it, so the length word and the body of a frame that
// fits — the Hello, every request, every point answer — cost one read of
// the connection; the part of a larger body that does not fit is read
// straight into the body's own allocation (see wire.ReadFrame).
const readBufSize = 8 << 10

// serve is the connection's loop: read a request, run h, write the
// response, on this goroutine. frame is the connection's one response
// buffer, lent to each handler as out and grown to the longest keepable
// response the connection has sent.
func serve(ctx context.Context, conn net.Conn, br *bufio.Reader, h Handler, idle time.Duration) {
	frame := make([]byte, wire.FrameHeaderSize+minFrameBuf)
	for {
		setIdleDeadline(conn, idle)
		mt, id, body, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		respType, resp, err := h(ctx, mt, body, frame[wire.FrameHeaderSize:wire.FrameHeaderSize])
		if err != nil {
			respType, resp = wire.MsgError, wire.ToWireError(err).Encode()
		}
		setWriteDeadline(conn, idle)
		if len(resp) > 0 && &resp[0] == &frame[wire.FrameHeaderSize] {
			// Built in place: the header goes in front and the frame
			// leaves as it is.
			err = wire.WriteFramed(conn, respType, id, frame[:wire.FrameHeaderSize+len(resp)])
		} else {
			err = wire.WriteFrame(conn, respType, id, resp)
			if n := wire.FrameHeaderSize + len(resp); n > len(frame) && len(resp) <= maxKeptFrame {
				frame = make([]byte, n)
			}
		}
		if err != nil {
			return
		}
	}
}
