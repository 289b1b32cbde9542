// Package rpc is the transport layer shared by every network role of the
// system: the verifying client and the edge server's central-facing side
// use Conn (a context-aware, pipelined request connection), while the
// central and edge servers' listening sides use ServeConn (a concurrent,
// multiplexed dispatch loop). Both ends open with a Hello handshake and
// refuse a peer that does not speak this build's protocol (see
// internal/wire/v2.go for the framing).
//
// A request's cost in goroutines and reads is fixed per connection, not
// paid per frame: each end reads numbered frames through one buffered
// reader (a frame that fits it is one read of the socket), a server
// connection runs its handlers on workers that live as long as it does,
// and a Conn's caller writes its own request and waits for the reader
// goroutine's hand-off — no goroutine is started for a call.
package rpc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"edgeauth/internal/wire"
)

// Defaults for Options zero values.
const (
	DefaultDialTimeout    = 5 * time.Second
	DefaultRedialAttempts = 3
	DefaultRedialBackoff  = 25 * time.Millisecond
)

// Options configures a Conn.
type Options struct {
	// DialTimeout bounds each TCP connect attempt. 0 selects
	// DefaultDialTimeout.
	DialTimeout time.Duration
	// RedialAttempts is how many connect attempts are made when
	// (re-)establishing the connection. 0 selects DefaultRedialAttempts.
	RedialAttempts int
	// RedialBackoff is the wait before the second connect attempt; it
	// doubles per attempt. 0 selects DefaultRedialBackoff.
	RedialBackoff time.Duration
	// Capabilities is the wire.Cap* bit set advertised in this side's
	// Hello (e.g. CapPeerServe for an edge that serves replication
	// traffic to other edges).
	Capabilities uint32
}

func (o Options) dialTimeout() time.Duration {
	if o.DialTimeout <= 0 {
		return DefaultDialTimeout
	}
	return o.DialTimeout
}

func (o Options) redialAttempts() int {
	if o.RedialAttempts <= 0 {
		return DefaultRedialAttempts
	}
	return o.RedialAttempts
}

func (o Options) redialBackoff() time.Duration {
	if o.RedialBackoff <= 0 {
		return DefaultRedialBackoff
	}
	return o.RedialBackoff
}

// frame is one demultiplexed response.
type frame struct {
	mt   wire.MsgType
	body []byte
}

// session is one live connection. Conn replaces its session on redial, so
// in-flight state never leaks across connection generations.
type session struct {
	nc net.Conn
	// peerCaps is the capability bit set the server advertised in its
	// HelloResp.
	peerCaps uint32

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
// concurrently: their requests are pipelined over one TCP connection and
// responses are demultiplexed by request ID. The connection is
// established lazily and re-established (with backoff) after it dies, so
// a transient peer outage does not poison the Conn forever.
type Conn struct {
	addr string
	opts Options

	mu     sync.Mutex // guards sess, closed and dialing
	sess   *session
	closed bool
	// dialing is non-nil while one goroutine runs the dial-with-backoff
	// loop (outside mu); it is closed when that attempt settles, so
	// concurrent callers can wait on it or on their own context instead
	// of queueing behind the mutex for the whole dial.
	dialing chan struct{}
}

// New creates a lazily-connecting Conn to addr.
func New(addr string, opts Options) *Conn {
	return &Conn{addr: addr, opts: opts}
}

// Addr reports the remote address.
func (c *Conn) Addr() string { return c.addr }

// Close tears down the connection; subsequent calls fail.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.sess != nil {
		err := c.sess.nc.Close()
		c.sess = nil
		return err
	}
	return nil
}

// Connect eagerly establishes (and handshakes) the connection.
func (c *Conn) Connect(ctx context.Context) error {
	_, err := c.ensureSession(ctx)
	return err
}

// PeerCaps reports the capability bits the remote side advertised in its
// HelloResp (0 before the first successful connect).
func (c *Conn) PeerCaps() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sess == nil {
		return 0
	}
	return c.sess.peerCaps
}

// ensureSession returns the live session, dialing and handshaking with
// backoff if there is none. Only one goroutine dials at a time; the rest
// wait for that attempt or for their own context, whichever ends first,
// so a short-deadline caller is never stuck behind a slow dial loop.
func (c *Conn) ensureSession(ctx context.Context) (*session, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, errors.New("rpc: connection closed")
		}
		if c.sess != nil {
			s := c.sess
			c.mu.Unlock()
			return s, nil
		}
		if c.dialing == nil {
			gate := make(chan struct{})
			c.dialing = gate
			c.mu.Unlock()

			s, err := c.dialLoop(ctx)

			c.mu.Lock()
			c.dialing = nil
			if err == nil {
				if c.closed {
					s.nc.Close()
					err = errors.New("rpc: connection closed")
				} else {
					c.sess = s
				}
			}
			close(gate)
			c.mu.Unlock()
			if err != nil {
				return nil, err
			}
			return s, nil
		}
		gate := c.dialing
		c.mu.Unlock()
		select {
		case <-gate:
			// The dialer settled; re-check the session (it may have
			// failed, in which case this caller becomes the dialer).
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// dialLoop makes up to redialAttempts connect attempts with doubling
// backoff. It runs outside the Conn mutex.
func (c *Conn) dialLoop(ctx context.Context) (*session, error) {
	var lastErr error
	backoff := c.opts.redialBackoff()
	for attempt := 0; attempt < c.opts.redialAttempts(); attempt++ {
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
		if err != nil {
			lastErr = err
			continue
		}
		return s, nil
	}
	return nil, fmt.Errorf("rpc: dialing %s: %w", c.addr, lastErr)
}

// dialAndHandshake makes one connect attempt and negotiates the protocol.
func (c *Conn) dialAndHandshake(ctx context.Context) (*session, error) {
	dctx, cancel := context.WithTimeout(ctx, c.opts.dialTimeout())
	defer cancel()
	var d net.Dialer
	nc, err := d.DialContext(dctx, "tcp", c.addr)
	if err != nil {
		return nil, err
	}
	return c.handshake(nc)
}

// handshake negotiates the protocol on a fresh connection and starts the
// session's reader; it closes nc when the peer is refused.
func (c *Conn) handshake(nc net.Conn) (*session, error) {
	// Hello and its reply travel in bare framing; everything after is
	// numbered.
	nc.SetDeadline(time.Now().Add(c.opts.dialTimeout()))
	if err := wire.WriteFrame(nc, wire.MsgHello, wire.EncodeHelloCaps(wire.ProtocolVersion, c.opts.Capabilities)); err != nil {
		nc.Close()
		return nil, fmt.Errorf("rpc: hello: %w", err)
	}
	mt, body, err := wire.ReadFrame(nc)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("rpc: hello response: %w", err)
	}
	nc.SetDeadline(time.Time{})
	caps, err := checkHelloResp(mt, body)
	if err != nil {
		nc.Close()
		return nil, err
	}
	s := &session{
		nc:       nc,
		peerCaps: caps,
		pending:  make(map[uint32]chan frame),
		writeSem: make(chan struct{}, 1),
	}
	go s.readLoop()
	return s, nil
}

// checkHelloResp validates the server's reply to our Hello — a HelloResp
// negotiating wire.ProtocolVersion — and returns the server's capabilities.
// Anything else, including the error frame a refusing server sends, is a
// dial error: there is no other protocol to continue in.
func checkHelloResp(mt wire.MsgType, body []byte) (caps uint32, err error) {
	switch mt {
	case wire.MsgHelloResp:
	case wire.MsgError:
		return 0, fmt.Errorf("rpc: handshake refused: %w", wire.DecodeWireError(body))
	default:
		return 0, fmt.Errorf("rpc: unexpected handshake reply %v", mt)
	}
	v, caps, err := wire.DecodeHelloCaps(body)
	if err != nil {
		return 0, err
	}
	if v != wire.ProtocolVersion {
		return 0, &wire.WireError{Code: wire.CodeUnsupported,
			Msg: fmt.Sprintf("rpc: server negotiated protocol %d, this build speaks only %d", v, wire.ProtocolVersion)}
	}
	return caps, nil
}

// dropSession discards a dead session (if it is still the current one).
func (c *Conn) dropSession(s *session) {
	c.mu.Lock()
	if c.sess == s {
		c.sess = nil
	}
	c.mu.Unlock()
	s.nc.Close()
}

// readLoop is the demultiplexer: it owns the connection's read side
// and routes each response frame to the in-flight call that owns its
// request ID. Responses may arrive in any order. The handshake read its
// one frame unbuffered and exactly, so the buffer starts at the first
// numbered frame.
func (s *session) readLoop() {
	br := bufio.NewReaderSize(s.nc, readBufSize)
	for {
		mt, id, body, err := wire.ReadFrameV2(br)
		if err != nil {
			s.failAll(fmt.Errorf("rpc: connection lost: %w", err))
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
// executed).
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
	s, err := c.ensureSession(ctx)
	if err != nil {
		return nil, &errTransport{err: err}
	}
	f, err := c.exchange(ctx, s, t, body)
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
	err := wire.WriteFrameV2(s.nc, t, id, body)
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
