package rpc

import (
	"bytes"
	"context"
	"io"
	"net"
	"testing"
	"time"

	"edgeauth/internal/wire"
)

// TestCapabilityExchange: the handshake carries the protocol version and
// nothing else. Byte for byte, as they leave the socket, a dialer's Hello
// and a server's HelloResp are each one frame on request 0 whose body is
// the version word (the capability word that followed it up to protocol
// 9 is gone), and each side goes on to serve a request after the other's
// golden bytes.
func TestCapabilityExchange(t *testing.T) {
	// u32 length 9 | type (hello 0x0c, hello-resp 0x0d) | request 0 | version 10
	hello := []byte{0, 0, 0, 9, 0x0c, 0, 0, 0, 0, 0, 0, 0, 10}
	helloResp := []byte{0, 0, 0, 9, 0x0d, 0, 0, 0, 0, 0, 0, 0, 10}
	ctx := context.Background()

	// The dialer's side: a fake server records the Hello, answers it with
	// the golden HelloResp and echoes one request.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sent := make(chan []byte, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		got := make([]byte, len(hello))
		if _, err := io.ReadFull(nc, got); err != nil {
			sent <- nil
			return
		}
		sent <- got
		if _, err := nc.Write(helloResp); err != nil {
			return
		}
		if mt, id, body, err := wire.ReadFrame(nc); err == nil && mt == wire.MsgShardQueryReq {
			_ = wire.WriteFrame(nc, wire.MsgShardQueryResp, id, body)
		}
	}()
	c := New(ln.Addr().String(), Options{})
	defer c.Close()
	if resp, err := c.Call(ctx, wire.MsgShardQueryReq, []byte("hi"), wire.MsgShardQueryResp, true); err != nil || string(resp) != "hi" {
		t.Fatalf("call after the golden HelloResp: %q, %v", resp, err)
	}
	if got := <-sent; !bytes.Equal(got, hello) {
		t.Fatalf("the dialer's Hello is %x, want %x", got, hello)
	}

	// The server's side: the golden Hello, then one request.
	nc, err := net.Dial("tcp", startServer(t, echoHandler, ServeOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Write(hello); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(helloResp))
	if _, err := io.ReadFull(nc, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, helloResp) {
		t.Fatalf("the server's HelloResp is %x, want %x", got, helloResp)
	}
	if err := wire.WriteFrame(nc, wire.MsgShardQueryReq, 1, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if mt, id, body, err := wire.ReadFrame(nc); err != nil || mt != wire.MsgShardQueryResp || id != 1 || string(body) != "hi" {
		t.Fatalf("request after the golden Hello: mt=%v id=%d body=%q err=%v", mt, id, body, err)
	}
}
