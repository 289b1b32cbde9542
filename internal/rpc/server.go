package rpc

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"edgeauth/internal/wire"
)

// Defaults for ServeOptions zero values.
const (
	DefaultIdleTimeout   = 2 * time.Minute
	DefaultMaxConcurrent = 16
)

// Handler executes one decoded request and returns the response frame's
// type and body. ctx is the connection's context: it is cancelled the
// moment the read loop observes the peer gone, so long-running handlers
// (query traversal, VO crypto) stop early instead of burning a worker on
// an answer nobody will read. Returning an error sends a typed error
// frame instead; return a *wire.WireError to control the code the client
// sees.
//
// A handler runs on one of its connection's workers — goroutines that
// live as long as the connection and run one request after another (see
// serve). It must not assume a goroutine of its own: anything it leaves
// on the goroutine (a held lock, a runtime.LockOSThread) meets the
// connection's next request, and a handler that never returns takes one
// of the connection's MaxConcurrent workers with it.
//
// out is an empty buffer the connection recycles from response to
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
	// MaxConcurrent bounds the requests executing concurrently on one
	// connection, and with them the worker goroutines the connection
	// starts. 0 selects DefaultMaxConcurrent.
	MaxConcurrent int
	// BaseContext, when non-nil, parents every connection context, so
	// cancelling it (server shutdown) stops in-flight handlers across
	// all connections. Nil leaves connections rooted at Background.
	BaseContext context.Context
	// Capabilities is the wire.Cap* bit set advertised in the HelloResp
	// (e.g. CapPeerServe when this server relays replication traffic).
	Capabilities uint32
}

func (o ServeOptions) baseContext() context.Context {
	if o.BaseContext != nil {
		return o.BaseContext
	}
	// The accept loop's default when no server lifecycle is plumbed in.
	return context.Background() //vetauth:ignore ctxflow there is no caller context to inherit here
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

func (o ServeOptions) maxConcurrent() int {
	if o.MaxConcurrent <= 0 {
		return DefaultMaxConcurrent
	}
	return o.MaxConcurrent
}

// ServeConn drives one accepted connection until it closes: it completes
// the Hello handshake, then dispatches requests through h. Requests
// decode on this (reader) goroutine and execute concurrently on the
// connection's own workers — at most MaxConcurrent goroutines, started as
// the connection's concurrency calls for them and kept until it closes —
// each response written under the connection write lock and tagged with
// its request ID. A peer whose first frame is not a
// well-formed Hello offering wire.ProtocolVersion gets one typed error frame
// and ServeConn returns (the caller closes the connection). ServeConn
// also returns when the peer disconnects, idles out, or sends a malformed
// frame; in-flight workers are drained before it returns.
func ServeConn(conn net.Conn, h Handler, o ServeOptions) {
	// The connection context: cancelled the moment the serve loop winds
	// down (peer disconnected, idled out, malformed frame) or the
	// server's BaseContext is cancelled, so in-flight handlers stop
	// early.
	ctx, cancel := context.WithCancel(o.baseContext())
	defer cancel()
	idle := o.idleTimeout()
	setIdleDeadline(conn, idle)
	mt, body, err := wire.ReadFrame(conn)
	if err != nil {
		return
	}
	if err := checkHello(mt, body); err != nil {
		setWriteDeadline(conn, idle)
		// Best effort: the connection is dropped whether or not the
		// refusal reaches the peer.
		_ = wire.WriteFrame(conn, wire.MsgError, err.Encode())
		return
	}
	setWriteDeadline(conn, idle)
	if err := wire.WriteFrame(conn, wire.MsgHelloResp, wire.EncodeHelloCaps(wire.ProtocolVersion, o.Capabilities)); err != nil {
		return
	}
	serve(ctx, conn, h, o, idle)
}

// checkHello validates a connection's first frame: a Hello whose sender
// speaks at least wire.ProtocolVersion.
func checkHello(mt wire.MsgType, body []byte) *wire.WireError {
	if mt != wire.MsgHello {
		return wire.Unsupported("rpc", mt)
	}
	theirMax, _, err := wire.DecodeHelloCaps(body)
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
// peer that sends requests but never drains responses cannot pin a
// worker (and with it the per-connection write lock) forever.
func setWriteDeadline(conn net.Conn, idle time.Duration) {
	if idle > 0 {
		conn.SetWriteDeadline(time.Now().Add(idle))
	}
}

// frameBuf is a recycled response frame: header room, then the body a
// handler appended.
type frameBuf struct{ b []byte }

var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

const (
	// minFrameBuf is the smallest response buffer handed to a handler.
	minFrameBuf = 512
	// maxPooledFrame bounds the responses a connection sizes its buffers
	// for: past it (bulk replication payloads) a response is allocated and
	// dropped, not kept in the pool.
	maxPooledFrame = 1 << 18
)

// readBufSize is the per-connection read buffer of both ends. Numbered
// frames are read through it, so the length word and the body of a frame
// that fits — every request, every point answer — cost one read of the
// connection; the part of a larger body that does not fit is read
// straight into the body's own allocation (see wire.ReadFrameV2).
const readBufSize = 8 << 10

// request is one decoded frame on its way from the reader to a worker.
type request struct {
	mt   wire.MsgType
	id   uint32
	body []byte
}

// serve is the multiplexed loop: decode on this goroutine, execute on the
// connection's workers, write under writeMu tagged with the request ID.
//
// A worker is a goroutine that lives as long as the connection and runs
// one request after another, so a connection's steady traffic runs on
// stacks that have already grown to its handlers' depth. The reader hands
// a frame to a free worker over work; it starts another only when none is
// free and fewer than MaxConcurrent exist, and waits for one otherwise —
// the connection's back-pressure. When the read loop exits (peer gone),
// ctx is cancelled before the worker drain, so stuck handlers unblock
// instead of pinning the drain.
func serve(ctx context.Context, conn net.Conn, h Handler, o ServeOptions, idle time.Duration) {
	var (
		writeMu    sync.Mutex
		wg         sync.WaitGroup
		work       = make(chan request)
		workers    int
		maxWorkers = o.maxConcurrent()
		// free counts the workers that have no handler running, less the
		// requests the reader has committed to them. A worker counts from
		// the moment its handler returns: all it has left is a response
		// write the write lock serialises anyway, and counting it then is
		// what makes a caller's next request find the worker that answered
		// its last one.
		free atomic.Int64
		// largest is the longest poolable response body this connection
		// has sent: the next handler's buffer is at least that large, so a
		// connection's steady traffic is answered in place.
		largest atomic.Int64
	)
	handle := func(req request) {
		fb := framePool.Get().(*frameBuf)
		defer framePool.Put(fb)
		if need := wire.FrameHeaderSize + max(int(largest.Load()), minFrameBuf); cap(fb.b) < need {
			fb.b = make([]byte, need)
		}
		frame := fb.b[:cap(fb.b)]
		respType, resp, err := h(ctx, req.mt, req.body, frame[wire.FrameHeaderSize:wire.FrameHeaderSize])
		if err != nil {
			respType, resp = wire.MsgError, wire.ToWireError(err).Encode()
		}
		free.Add(1)
		writeMu.Lock()
		setWriteDeadline(conn, idle)
		var werr error
		if len(resp) > 0 && &resp[0] == &frame[wire.FrameHeaderSize] {
			// Built in place: the header goes in front and the frame
			// leaves as it is.
			werr = wire.WriteFramed(conn, respType, req.id, frame[:wire.FrameHeaderSize+len(resp)])
		} else {
			werr = wire.WriteFrameV2(conn, respType, req.id, resp)
		}
		writeMu.Unlock()
		if werr != nil {
			// The peer is gone; the read loop will notice shortly.
			conn.Close()
		}
		if n := int64(len(resp)); n <= maxPooledFrame {
			for seen := largest.Load(); n > seen && !largest.CompareAndSwap(seen, n); seen = largest.Load() {
			}
		}
	}
	ctx, cancel := context.WithCancel(ctx)
	defer wg.Wait()
	defer cancel()
	defer close(work)
	br := bufio.NewReaderSize(conn, readBufSize)
	for {
		setIdleDeadline(conn, idle)
		mt, id, body, err := wire.ReadFrameV2(br)
		if err != nil {
			return
		}
		req := request{mt: mt, id: id, body: body}
		if free.Load() <= 0 && workers < maxWorkers {
			workers++
			wg.Add(1)
			go func(first request) {
				defer wg.Done()
				handle(first)
				for req := range work {
					handle(req)
				}
			}(req)
			continue
		}
		free.Add(-1)
		work <- req
	}
}
