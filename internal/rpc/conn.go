// Package rpc is the transport layer shared by every network role of the
// system: the verifying client and the edge server's central-facing side
// use Conn (a context-aware request connection), while the central and
// edge servers' listening sides use ServeConn. Both ends open with a
// Hello handshake — a frame on request 0 whose body is the protocol
// version — and refuse a peer that does not speak this build's protocol
// (see internal/wire/frame.go for the framing). Nothing else is
// negotiated, and nothing about either end is configurable but a
// server's idle timeout.
//
// A call costs no goroutine hand-off at either end. A Conn's caller takes
// a session — a TCP connection that carries one call at a time — writes
// its request, reads its own response and returns the session; a server
// connection reads a request, runs its handler and writes the response on
// the one goroutine that serves the connection. Each end reads every
// frame, the Hello included, through one buffered reader, so a frame that
// fits it is one read of the socket.
//
// Calls that overlap therefore hold a session each: a Conn dials one
// whenever no idle session is left, and keeps at most one idle session
// per processor (runtime.GOMAXPROCS when the Conn is made) for the calls
// that follow. A caller whose calls never overlap keeps to one session.
package rpc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"edgeauth/internal/wire"
)

// A Conn makes up to redialAttempts connect attempts to establish a
// session when it has none, waiting redialBackoff before the second and
// doubling the wait per attempt.
const (
	redialAttempts = 3
	redialBackoff  = 25 * time.Millisecond
)

// dialTimeout bounds each TCP connect attempt and the Hello exchange
// that follows it.
const dialTimeout = 5 * time.Second

// Options configures nothing: every Conn dials the same way. The type and
// New's parameter remain only because the benchmark harness, its own
// module, passes Options{}; they go when it stops (ROADMAP 9(0)).
type Options struct{}

// session is one connection of a Conn, held by one call at a time. Its
// holder writes a request, reads the response through br and either
// returns the session or, after any failure, closes it: a session is
// reused only when its last exchange ended at a frame boundary.
type session struct {
	nc     net.Conn
	br     *bufio.Reader
	nextID uint32
	// probe peeks at the socket without blocking (see alive); nil when nc
	// is not a socket.
	probe func() bool
}

// Conn is a context-aware client connection to one server. N goroutines
// may call Call concurrently: each call holds a session of its own for
// its exchange, so concurrent calls are not ordered with respect to each
// other.
//
// A call takes the session returned last (the one most likely still
// warm), or dials one when none is idle. A session that a server closed
// while it sat idle — an idle timeout, a restart — is found before
// anything is written to it and dropped. If a dial fails while other
// calls hold sessions, the caller waits for the next session one of them
// returns instead (or for its own context). A server therefore sees one
// connection per call a Conn has in flight, and between bursts the Conn
// keeps at most GOMAXPROCS of them open.
type Conn struct {
	addr string
	// maxIdle bounds the idle sessions kept: runtime.GOMAXPROCS when New
	// ran.
	maxIdle int

	mu     sync.Mutex // guards everything below
	idle   []*session // a stack: the last returned is taken first
	open   map[*session]struct{}
	closed bool
	// waiters are callers whose dial failed while other calls held
	// sessions; each is handed the next returned session, or nil when a
	// session closed instead, so that it looks again.
	waiters []chan *session
}

// New creates a lazily-connecting Conn to addr.
func New(addr string, _ Options) *Conn {
	return &Conn{addr: addr, maxIdle: runtime.GOMAXPROCS(0), open: make(map[*session]struct{})}
}

// Addr reports the remote address.
func (c *Conn) Addr() string { return c.addr }

var errClosed = errors.New("rpc: connection closed")

// Close tears down every session, the ones calls hold included (those
// calls fail); subsequent calls fail.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	var err error
	for s := range c.open {
		if cerr := s.nc.Close(); err == nil {
			err = cerr
		}
	}
	for _, w := range c.waiters {
		w <- nil
	}
	c.open, c.idle, c.waiters = nil, nil, nil
	return err
}

// Connect eagerly establishes (and handshakes) a session.
func (c *Conn) Connect(ctx context.Context) error {
	s, err := c.take(ctx)
	if err == nil {
		c.put(s)
	}
	return err
}

// take returns a session for one call: the last idle one that is still
// alive, else one it dials. A failed dial is final when no other call
// holds a session; otherwise the caller waits for one to be returned.
func (c *Conn) take(ctx context.Context) (*session, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, errClosed
		}
		if n := len(c.idle); n > 0 {
			s := c.idle[n-1]
			c.idle = c.idle[:n-1]
			c.mu.Unlock()
			if s.alive() {
				return s, nil
			}
			c.discard(s)
			continue
		}
		first := len(c.open) == 0
		c.mu.Unlock()

		var s *session
		var err error
		if first {
			s, err = c.dialLoop(ctx)
		} else {
			s, err = c.dialAndHandshake(ctx)
		}
		if err == nil {
			return c.admit(s)
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if refused(err) {
			return nil, err
		}
		s, err = c.await(ctx, err)
		if s != nil || err != nil {
			return s, err
		}
	}
}

// admit adds a freshly dialled session to the sessions Close tears down.
func (c *Conn) admit(s *session) (*session, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		s.nc.Close()
		return nil, errClosed
	}
	c.open[s] = struct{}{}
	return s, nil
}

// await waits, after a dial failed with dialErr, for a session another
// call returns. It returns dialErr at once when no call holds one, and
// (nil, nil) when a session closed instead of being returned, so that the
// caller looks again.
func (c *Conn) await(ctx context.Context, dialErr error) (*session, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errClosed
	}
	if len(c.idle) > 0 {
		c.mu.Unlock()
		return nil, nil
	}
	if len(c.open) == 0 {
		c.mu.Unlock()
		return nil, dialErr
	}
	w := make(chan *session, 1)
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()
	select {
	case s := <-w:
		return s, nil
	case <-ctx.Done():
	}
	c.mu.Lock()
	i := slices.Index(c.waiters, w)
	if i >= 0 {
		c.waiters = slices.Delete(c.waiters, i, i+1)
	}
	c.mu.Unlock()
	if i < 0 {
		// Handed a session (or a wake-up) as ctx ended: pass it on.
		if s := <-w; s != nil {
			c.put(s)
		}
	}
	return nil, ctx.Err()
}

// put returns a session whose last exchange completed: to the first
// waiting caller, else to the idle stack, else (the stack is full) it is
// closed.
func (c *Conn) put(s *session) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		s.nc.Close()
		return
	}
	if len(c.waiters) > 0 {
		w := c.waiters[0]
		c.waiters = c.waiters[1:]
		c.mu.Unlock()
		w <- s
		return
	}
	if len(c.idle) < c.maxIdle {
		c.idle = append(c.idle, s)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	c.discard(s)
}

// discard closes a session that must not carry another call, and wakes
// one waiting caller to look again: it may now dial where it could not.
func (c *Conn) discard(s *session) {
	c.mu.Lock()
	delete(c.open, s)
	if len(c.waiters) > 0 {
		c.waiters[0] <- nil
		c.waiters = c.waiters[1:]
	}
	c.mu.Unlock()
	s.nc.Close()
}

// dialLoop makes up to redialAttempts connect attempts with doubling
// backoff, and stops at the first refusal: a peer that answered the Hello
// with a typed error gives the same answer to every redial.
func (c *Conn) dialLoop(ctx context.Context) (*session, error) {
	var lastErr error
	backoff := redialBackoff
	for attempt := 0; attempt < redialAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s, err := c.dialAndHandshake(ctx)
		if err == nil {
			return s, nil
		}
		if lastErr = err; refused(err) {
			break
		}
	}
	return nil, fmt.Errorf("rpc: dialing %s: %w", c.addr, lastErr)
}

// refused reports whether err is the peer's typed answer to the Hello —
// checkHelloResp's refusal or the error frame it carries — rather than a
// failure to connect or to exchange it, which a redial may cure.
func refused(err error) bool {
	var we *wire.WireError
	return errors.As(err, &we)
}

// dialAndHandshake makes one connect attempt and negotiates the protocol.
func (c *Conn) dialAndHandshake(ctx context.Context) (*session, error) {
	dctx, cancel := context.WithTimeout(ctx, dialTimeout)
	defer cancel()
	var d net.Dialer
	nc, err := d.DialContext(dctx, "tcp", c.addr)
	if err != nil {
		return nil, err
	}
	return handshake(nc)
}

// handshake negotiates the protocol on a fresh connection; it closes nc
// when the peer is refused. The HelloResp is read through the buffered
// reader the session reads every response through, so whatever arrived
// behind it is kept.
func handshake(nc net.Conn) (*session, error) {
	nc.SetDeadline(time.Now().Add(dialTimeout))
	if err := wire.WriteFrame(nc, wire.MsgHello, 0, wire.EncodeHello(wire.ProtocolVersion)); err != nil {
		nc.Close()
		return nil, fmt.Errorf("rpc: hello: %w", err)
	}
	br := bufio.NewReaderSize(nc, readBufSize)
	mt, id, body, err := wire.ReadFrame(br)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("rpc: hello response: %w", err)
	}
	nc.SetDeadline(time.Time{})
	if err := checkHelloResp(mt, id, body); err != nil {
		nc.Close()
		return nil, err
	}
	return &session{nc: nc, br: br, probe: probeOf(nc)}, nil
}

// checkHelloResp validates the server's reply to our Hello: a HelloResp on
// request 0 carrying wire.ProtocolVersion. Anything else, including the
// error frame a refusing server sends, is a dial error: there is no other
// protocol to continue in.
func checkHelloResp(mt wire.MsgType, id uint32, body []byte) error {
	if id != 0 {
		// A version-9 server's bare reply, read as a frame, puts its
		// body's first word here.
		return &wire.WireError{Code: wire.CodeUnsupported,
			Msg: fmt.Sprintf("rpc: server does not speak protocol %d: its handshake reply is request %d, not 0", wire.ProtocolVersion, id)}
	}
	switch mt {
	case wire.MsgHelloResp:
	case wire.MsgError:
		return fmt.Errorf("rpc: handshake refused: %w", wire.DecodeWireError(body))
	default:
		return fmt.Errorf("rpc: unexpected handshake reply %v", mt)
	}
	v, err := wire.DecodeHello(body)
	if err != nil {
		return err
	}
	if v != wire.ProtocolVersion {
		return &wire.WireError{Code: wire.CodeUnsupported,
			Msg: fmt.Sprintf("rpc: server negotiated protocol %d, this build speaks only %d", v, wire.ProtocolVersion)}
	}
	return nil
}

// alive reports whether an idle session can carry a call: nothing is
// buffered and, where the connection is a socket, its peer has not
// closed it.
func (s *session) alive() bool {
	return s.br.Buffered() == 0 && (s.probe == nil || s.probe())
}

// errTransport wraps failures of the connection itself (as opposed to
// errors reported by the remote side), the class of failure a redial can
// fix. sent records whether a complete request frame may have reached
// the server: a failed dial or a failed or partial write provably never
// delivered an executable request (the server cannot dispatch a
// truncated frame), so those remain retryable even for non-idempotent
// requests.
type errTransport struct {
	err  error
	sent bool
}

func (e *errTransport) Error() string { return e.err.Error() }
func (e *errTransport) Unwrap() error { return e.err }

// Call sends one request and returns the matching response body. Remote
// error frames come back as typed *wire.WireError errors. When the
// connection itself fails, Call retries once on another session —
// always when the request provably never reached the server, and
// otherwise only for idempotent requests (a non-idempotent request that
// was fully written may already have executed). A peer's refusal of the
// handshake is final: Call returns it without a second dial loop.
func (c *Conn) Call(ctx context.Context, t wire.MsgType, body []byte, want wire.MsgType, idempotent bool) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp, err := c.callOnce(ctx, t, body, want)
	if err == nil {
		return resp, nil
	}
	if te := (*errTransport)(nil); errors.As(err, &te) && (idempotent || !te.sent) && ctx.Err() == nil {
		// The session died under us: one retry, then give up.
		resp, err = c.callOnce(ctx, t, body, want)
	}
	if te := (*errTransport)(nil); errors.As(err, &te) {
		err = te.err
	}
	return resp, err
}

func (c *Conn) callOnce(ctx context.Context, t wire.MsgType, body []byte, want wire.MsgType) ([]byte, error) {
	s, err := c.take(ctx)
	if err != nil {
		if refused(err) {
			return nil, err
		}
		return nil, &errTransport{err: err}
	}
	mt, resp, err := s.exchange(ctx, t, body)
	if err != nil {
		c.discard(s)
		return nil, err
	}
	c.put(s)
	if mt == wire.MsgError {
		return nil, wire.DecodeWireError(resp)
	}
	if mt != want {
		return nil, fmt.Errorf("rpc: expected %v, got %v", want, mt)
	}
	return resp, nil
}

// exchange writes one request on s and reads its response. A context
// that can end bounds both by its deadline and, once it is cancelled, by
// a deadline in the past; the exchange then fails with the context's
// error. Any error leaves s unfit for reuse, and so does a cancellation
// that lands after the response arrived, since its deadline may still
// reach the socket.
func (s *session) exchange(ctx context.Context, t wire.MsgType, body []byte) (wire.MsgType, []byte, error) {
	if ctx.Done() == nil {
		return s.roundTrip(t, body)
	}
	d, bounded := ctx.Deadline()
	if bounded {
		s.nc.SetDeadline(d)
	}
	stop := context.AfterFunc(ctx, func() { s.nc.SetDeadline(time.Unix(1, 0)) })
	mt, resp, err := s.roundTrip(t, body)
	switch {
	case !stop() || ctx.Err() != nil:
		return 0, nil, ctx.Err()
	case errors.Is(err, os.ErrDeadlineExceeded):
		// The socket's deadline is the context's, reached a moment
		// before the context's own timer.
		return 0, nil, context.DeadlineExceeded
	case err == nil && bounded:
		s.nc.SetDeadline(time.Time{})
	}
	return mt, resp, err
}

// roundTrip writes the request frame and reads the frame that answers it.
func (s *session) roundTrip(t wire.MsgType, body []byte) (wire.MsgType, []byte, error) {
	s.nextID++
	if err := wire.WriteFrame(s.nc, t, s.nextID, body); err != nil {
		return 0, nil, &errTransport{err: fmt.Errorf("rpc: write: %w", err)}
	}
	mt, id, resp, err := wire.ReadFrame(s.br)
	if err != nil {
		return 0, nil, &errTransport{err: fmt.Errorf("rpc: connection lost: %w", err), sent: true}
	}
	if id != s.nextID {
		return 0, nil, &errTransport{err: fmt.Errorf("rpc: response to request %d, want %d", id, s.nextID), sent: true}
	}
	return mt, resp, nil
}
