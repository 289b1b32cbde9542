package rpc

import (
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"edgeauth/internal/wire"
)

// TestServeAfterCloseClosesListener: a listener handed to a closed
// server is closed, and Serve returns at once instead of accepting.
func TestServeAfterCloseClosesListener(t *testing.T) {
	srv := NewServer(echoHandler, ServeOptions{})
	srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv.Serve(ln)
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Accept on the listener after Serve: %v, want net.ErrClosed", err)
	}
}

// TestCloseCancelsAndWaitsForHandlers: Close cancels the context of a
// handler in flight and returns only after that handler has returned.
func TestCloseCancelsAndWaitsForHandlers(t *testing.T) {
	var (
		entered   = make(chan struct{})
		cancelled = make(chan struct{})
		release   = make(chan struct{})
		returned  atomic.Bool
	)
	srv := NewServer(func(ctx context.Context, mt wire.MsgType, body, _ []byte) (wire.MsgType, []byte, error) {
		close(entered)
		<-ctx.Done()
		close(cancelled)
		<-release
		returned.Store(true)
		return 0, nil, ctx.Err()
	}, ServeOptions{})
	releaseHandler := releaser(t, release)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	c := New(ln.Addr().String(), Options{})
	defer c.Close()
	go c.Call(context.Background(), wire.MsgShardQueryReq, []byte("x"), wire.MsgShardQueryResp, true)
	<-entered

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not cancel the in-flight handler's context")
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a handler was still running")
	default:
	}
	releaseHandler()
	<-closed
	if !returned.Load() {
		t.Fatal("Close returned before the handler did")
	}
}

// lateListener hands Serve the connections a test pushes, and keeps
// doing so after it is closed: the accept that races Close.
type lateListener struct {
	conns     chan net.Conn
	accepting chan struct{}
	closed    atomic.Bool
}

func (l *lateListener) Accept() (net.Conn, error) {
	select {
	case l.accepting <- struct{}{}:
	default:
	}
	c, ok := <-l.conns
	if !ok {
		return nil, net.ErrClosed
	}
	return c, nil
}

func (l *lateListener) Close() error   { l.closed.Store(true); return nil }
func (l *lateListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestConnAcceptedDuringCloseIsClosed: a connection the listener
// returns after Close has begun is closed instead of served, and Serve
// returns.
func TestConnAcceptedDuringCloseIsClosed(t *testing.T) {
	srv := NewServer(echoHandler, ServeOptions{})
	l := &lateListener{conns: make(chan net.Conn), accepting: make(chan struct{}, 1)}
	served := make(chan struct{})
	go func() {
		srv.Serve(l)
		close(served)
	}()
	<-l.accepting // Serve has registered l and waits in Accept
	srv.Close()
	if !l.closed.Load() {
		t.Fatal("Close left the listener open")
	}
	server, peer := net.Pipe()
	defer peer.Close()
	l.conns <- server
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve kept accepting after Close")
	}
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := peer.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("read from a connection accepted during Close: %v, want io.EOF", err)
	}
}

// TestCloseIsIdempotent: a second Close returns at once, a Go task is
// cancelled and waited for by the first, and a Go task started after
// Close never runs.
func TestCloseIsIdempotent(t *testing.T) {
	srv := NewServer(echoHandler, ServeOptions{})
	var taskDone atomic.Bool
	srv.Go(func(ctx context.Context) {
		<-ctx.Done()
		taskDone.Store(true)
	})
	srv.Close()
	if !taskDone.Load() {
		t.Fatal("Close returned before its Go task")
	}
	srv.Close()
	ran := make(chan struct{}, 1)
	srv.Go(func(context.Context) { ran <- struct{}{} })
	srv.Close()
	select {
	case <-ran:
		t.Fatal("a Go task started on a closed server")
	default:
	}
}
