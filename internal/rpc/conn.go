// Package rpc is the transport layer shared by every network role of the
// system: the verifying client and the edge server's central-facing side
// use Conn (a context-aware, pipelined request connection), while the
// central and edge servers' listening sides use ServeConn (a concurrent,
// multiplexed dispatch loop). Both ends open with a Hello handshake — a
// frame on request 0 whose body is the protocol version — and refuse a
// peer that does not speak this build's protocol (see
// internal/wire/frame.go for the framing). Nothing else is negotiated,
// and nothing about either end is configurable but a server's idle
// timeout.
//
// A request's cost in goroutines and reads is fixed per connection, not
// paid per frame: each end reads every frame, the Hello included,
// through one buffered reader (a frame that fits it is one read of the
// socket), a server connection runs its handlers on workers that live as
// long as it does, and a Conn's caller writes its own request and waits
// for the reader goroutine's hand-off — no goroutine is started for a
// call.
//
// A Conn spreads concurrent calls over a small pool of sessions — TCP
// connections, each with its own reader — of at most one per processor
// (runtime.GOMAXPROCS when the Conn is made). One socket's reader and
// writer serialise every call on it, so callers that overlap would
// otherwise queue there while other processors idle. A caller whose
// calls never overlap, or a process with one processor, keeps to one
// session.
package rpc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"edgeauth/internal/wire"
)

// A Conn makes up to redialAttempts connect attempts to (re-)establish a
// session, waiting redialBackoff before the second and doubling the wait
// per attempt.
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

// frame is one demultiplexed response.
type frame struct {
	mt   wire.MsgType
	body []byte
}

// session is one live connection of a Conn's pool. A session whose
// connection fails is dropped from the pool by its own reader, so no
// later call takes it, and a fresh one is dialled when a call needs it:
// in-flight state never leaks across connections.
type session struct {
	nc net.Conn
	// calls counts the calls that have taken this session and not yet
	// returned; the pool hands a new call the session with the fewest.
	calls atomic.Int32

	// The in-flight request table and the per-connection write slot (a
	// 1-slot semaphore rather than a mutex, so a caller queued behind a
	// stalled writer can still observe its own context). The reader
	// goroutine owns the read side exclusively.
	writeSem chan struct{}
	pendMu   sync.Mutex
	pending  map[uint32]chan frame
	nextID   uint32
	dead     error // set once the reader fails; guarded by pendMu
}

// Conn is a context-aware client connection. N goroutines may call Call
// concurrently: each request goes out on one of the Conn's sessions,
// pipelined behind that session's other requests, and responses are
// demultiplexed by request ID. Concurrent calls are not ordered with
// respect to each other, whichever sessions they take.
//
// The first session is dialled lazily and a dead one is dropped and
// replaced (with backoff), so a transient peer outage does not poison
// the Conn forever. A call takes a session with no call in flight; when
// every session is busy and the pool is below its bound — one session
// per processor — the caller makes one attempt to dial one more (one
// dial at a time) while other callers share the least loaded session.
// If that attempt fails, the pool stops growing until one of its
// sessions is dropped. A server therefore sees up to GOMAXPROCS
// connections from one Conn, each running at most maxConcurrent (16) of
// its requests at once. The bound has been measured only at two
// processors; what a session per processor costs on larger hosts is
// not known.
type Conn struct {
	addr string
	// maxSessions bounds the pool: runtime.GOMAXPROCS when New ran.
	maxSessions int

	mu       sync.Mutex // guards sessions, closed, dialing and growHalted
	sessions []*session
	closed   bool
	// growHalted is set when a dial for one more session failed; the
	// pool grows again once a session is dropped.
	growHalted bool
	// dialing is non-nil while one goroutine dials a session (outside
	// mu); it is closed when that attempt settles, so callers with no
	// session to take can wait on it or on their own context instead of
	// queueing behind the mutex for the whole dial.
	dialing chan struct{}
}

// New creates a lazily-connecting Conn to addr.
func New(addr string, _ Options) *Conn {
	return &Conn{addr: addr, maxSessions: runtime.GOMAXPROCS(0)}
}

// Addr reports the remote address.
func (c *Conn) Addr() string { return c.addr }

// Close tears down every session; subsequent calls fail.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	var err error
	for _, s := range c.sessions {
		if cerr := s.nc.Close(); err == nil {
			err = cerr
		}
	}
	c.sessions = nil
	return err
}

// Connect eagerly establishes (and handshakes) a session.
func (c *Conn) Connect(ctx context.Context) error {
	s, err := c.take(ctx)
	if err == nil {
		s.calls.Add(-1)
	}
	return err
}

var errClosed = errors.New("rpc: connection closed")

// take returns a session for one call, counted in its calls until the
// caller subtracts it: the first session with no call in flight, else a
// new one this caller dials if the pool is below its bound, has not
// halted its growth and no dial is under way, else the least loaded. With no session at all and a dial
// under way it waits for that dial or for its own context, whichever
// ends first, so a short-deadline caller is never stuck behind a slow
// dial loop.
func (c *Conn) take(ctx context.Context) (*session, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, errClosed
		}
		s := c.leastLoaded()
		first := len(c.sessions) == 0
		grow := c.dialing == nil && (first || len(c.sessions) < c.maxSessions && !c.growHalted)
		if s != nil && (s.calls.Load() == 0 || !grow) {
			s.calls.Add(1)
			c.mu.Unlock()
			return s, nil
		}
		if grow {
			gate := make(chan struct{})
			c.dialing = gate
			c.mu.Unlock()
			return c.dial(ctx, gate, first)
		}
		// No session yet, and another caller is dialing the first.
		gate := c.dialing
		c.mu.Unlock()
		select {
		case <-gate:
			// The dialer settled; look again (its dial may have failed,
			// in which case this caller becomes the dialer).
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// leastLoaded returns the first session with no call in flight, else the
// one with the fewest, else nil. The caller holds mu.
func (c *Conn) leastLoaded() *session {
	var least *session
	for _, s := range c.sessions {
		n := s.calls.Load()
		if n == 0 {
			return s
		}
		if least == nil || n < least.calls.Load() {
			least = s
		}
	}
	return least
}

// dial opens a session for the calling caller and adds it to the pool,
// then releases gate. The first session gets the whole dial loop; one
// more for a busy pool gets a single attempt, and if that fails the
// caller shares the least loaded session instead and the pool stops
// growing: it serves on what it has.
func (c *Conn) dial(ctx context.Context, gate chan struct{}, first bool) (*session, error) {
	var s *session
	var err error
	if first {
		s, err = c.dialLoop(ctx)
	} else {
		s, err = c.dialAndHandshake(ctx)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dialing = nil
	close(gate)
	if c.closed {
		if err == nil {
			s.nc.Close()
		}
		return nil, errClosed
	}
	if err == nil {
		// A session that died before it joined the pool was not there
		// for its reader to drop: keep it out.
		s.pendMu.Lock()
		err = s.dead
		s.pendMu.Unlock()
	}
	if err != nil {
		if least := c.leastLoaded(); least != nil {
			c.growHalted = true
			least.calls.Add(1)
			return least, nil
		}
		return nil, err
	}
	s.calls.Add(1)
	c.sessions = append(c.sessions, s)
	return s, nil
}

// dialLoop makes up to redialAttempts connect attempts with doubling
// backoff, and stops at the first refusal: a peer that answered the Hello
// with a typed error gives the same answer to every redial. It runs
// outside the Conn mutex.
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
	return c.handshake(nc)
}

// handshake negotiates the protocol on a fresh connection and starts the
// session's reader; it closes nc when the peer is refused. The HelloResp
// is read through the buffered reader the session's reader goes on with,
// so whatever arrived behind it is kept.
func (c *Conn) handshake(nc net.Conn) (*session, error) {
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
	s := &session{
		nc:       nc,
		pending:  make(map[uint32]chan frame),
		writeSem: make(chan struct{}, 1),
	}
	go s.readLoop(c, br)
	return s, nil
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

// dropSession discards a dead session from the pool (if it is still
// there) and lets the pool grow again; the other sessions and their
// calls are untouched.
func (c *Conn) dropSession(s *session) {
	c.mu.Lock()
	if i := slices.Index(c.sessions, s); i >= 0 {
		c.sessions = slices.Delete(c.sessions, i, i+1)
		c.growHalted = false
	}
	c.mu.Unlock()
	s.nc.Close()
}

// readLoop is the demultiplexer: it owns the connection's read side
// and routes each response frame to the in-flight call that owns its
// request ID. Responses may arrive in any order. br is the reader the
// handshake read the HelloResp through. When the connection fails,
// readLoop fails the session's calls and drops it from c's pool, so a
// session that dies idle — a server's idle timeout or restart — is never
// handed out.
func (s *session) readLoop(c *Conn, br *bufio.Reader) {
	for {
		mt, id, body, err := wire.ReadFrame(br)
		if err != nil {
			s.failAll(fmt.Errorf("rpc: connection lost: %w", err))
			c.dropSession(s)
			return
		}
		s.pendMu.Lock()
		ch := s.pending[id]
		delete(s.pending, id)
		s.pendMu.Unlock()
		if ch != nil {
			ch <- frame{mt: mt, body: body}
		}
	}
}

// failAll marks the session dead and wakes every in-flight call.
func (s *session) failAll(err error) {
	s.pendMu.Lock()
	s.dead = err
	pending := s.pending
	s.pending = nil
	s.pendMu.Unlock()
	for _, ch := range pending {
		close(ch)
	}
}

// errTransport wraps failures of the connection itself (as opposed to
// errors reported by the remote side), the class of failure a redial can
// fix. sent records whether a complete request frame may have reached
// the server: a dead-session check or a failed/partial write provably
// never delivered an executable request (the server cannot dispatch a
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
// connection itself fails, Call redials with backoff and retries once on
// the fresh connection — always when the request provably never reached
// the server, and otherwise only for idempotent requests (a
// non-idempotent request that was fully written may already have
// executed). A peer's refusal of the handshake is final: Call returns it
// without a second dial loop.
func (c *Conn) Call(ctx context.Context, t wire.MsgType, body []byte, want wire.MsgType, idempotent bool) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp, err := c.callOnce(ctx, t, body, want)
	var te *errTransport
	if err != nil && errors.As(err, &te) && (idempotent || !te.sent) && ctx.Err() == nil {
		// The conn died under us: one redial-and-retry, then give up.
		resp, err = c.callOnce(ctx, t, body, want)
	}
	if te2 := (*errTransport)(nil); errors.As(err, &te2) {
		err = te2.err
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
	f, err := c.exchange(ctx, s, t, body)
	s.calls.Add(-1)
	if err != nil {
		return nil, err
	}
	if f.mt == wire.MsgError {
		return nil, wire.DecodeWireError(f.body)
	}
	if f.mt != want {
		return nil, fmt.Errorf("rpc: expected %v, got %v", want, f.mt)
	}
	return f.body, nil
}

// exchange runs one pipelined exchange: register an in-flight entry, write
// the frame under the connection write lock, then wait for the reader
// goroutine to deliver the tagged response (or for ctx to expire).
func (c *Conn) exchange(ctx context.Context, s *session, t wire.MsgType, body []byte) (frame, error) {
	ch := make(chan frame, 1)
	s.pendMu.Lock()
	if s.dead != nil {
		err := s.dead
		s.pendMu.Unlock()
		c.dropSession(s)
		return frame{}, &errTransport{err: err}
	}
	s.nextID++
	id := s.nextID
	s.pending[id] = ch
	s.pendMu.Unlock()

	unregister := func() {
		s.pendMu.Lock()
		delete(s.pending, id)
		s.pendMu.Unlock()
	}

	// Acquire the write slot without ignoring ctx: a caller queued behind
	// a stalled writer still honors its own deadline.
	select {
	case s.writeSem <- struct{}{}:
	case <-ctx.Done():
		unregister()
		return frame{}, ctx.Err()
	}
	// Each writer arms its own write deadline (and a cancellation hook)
	// while holding the slot, so a peer that stops draining its socket
	// cannot block the write past this call's context. A hook that fires
	// late can at worst poison the next writer's deadline for one write;
	// that write errors, drops the session, and the caller's retry logic
	// takes over.
	if d, ok := ctx.Deadline(); ok {
		s.nc.SetWriteDeadline(d)
	} else {
		s.nc.SetWriteDeadline(time.Time{})
	}
	stopW := context.AfterFunc(ctx, func() {
		s.nc.SetWriteDeadline(time.Unix(1, 0))
	})
	err := wire.WriteFrame(s.nc, t, id, body)
	stopW()
	<-s.writeSem
	if err != nil {
		// Whether the write stalled or was cancelled mid-frame, bytes may
		// have been partially flushed: the stream is desynchronized and
		// the session cannot be reused.
		unregister()
		c.dropSession(s)
		if ctxErr := ctx.Err(); ctxErr != nil {
			return frame{}, ctxErr
		}
		return frame{}, &errTransport{err: fmt.Errorf("rpc: write: %w", err)}
	}

	select {
	case f, ok := <-ch:
		if !ok {
			// readLoop failed the session after the request went out.
			s.pendMu.Lock()
			err := s.dead
			s.pendMu.Unlock()
			c.dropSession(s)
			if err == nil {
				err = errors.New("rpc: connection lost")
			}
			return frame{}, &errTransport{err: err, sent: true}
		}
		return f, nil
	case <-ctx.Done():
		// Abandon the in-flight entry; if the response arrives later the
		// readLoop finds no owner and discards it. The connection remains
		// healthy for other callers.
		s.pendMu.Lock()
		delete(s.pending, id)
		s.pendMu.Unlock()
		return frame{}, ctx.Err()
	}
}
