package rpc

import (
	"context"
	"testing"

	"edgeauth/internal/wire"
)

// TestCapabilityExchange: capability bits ride the Hello handshake in
// both directions — the server's bits surface through Conn.PeerCaps so
// a puller can see whether its upstream is a serving peer.
func TestCapabilityExchange(t *testing.T) {
	addr := startServer(t, echoHandler, ServeOptions{Capabilities: wire.CapPeerServe})
	c := New(addr, Options{Capabilities: wire.CapPeerServe})
	defer c.Close()
	ctx := context.Background()

	if got := c.PeerCaps(); got != 0 {
		t.Fatalf("caps before connect = %#x, want 0", got)
	}
	if _, err := c.Call(ctx, wire.MsgShardQueryReq, []byte("hi"), wire.MsgShardQueryResp, true); err != nil {
		t.Fatal(err)
	}
	if got := c.PeerCaps(); got != wire.CapPeerServe {
		t.Fatalf("caps = %#x, want CapPeerServe", got)
	}

	// A server with no capabilities advertises none.
	plain := New(startServer(t, echoHandler, ServeOptions{}), Options{})
	defer plain.Close()
	if _, err := plain.Call(ctx, wire.MsgShardQueryReq, []byte("hi"), wire.MsgShardQueryResp, true); err != nil {
		t.Fatal(err)
	}
	if got := plain.PeerCaps(); got != 0 {
		t.Fatalf("plain server caps = %#x, want 0", got)
	}
}
