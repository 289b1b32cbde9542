package rpc

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"testing"

	"edgeauth/internal/israce"
	"edgeauth/internal/wire"
)

// rawEcho serves one connection through fixed buffers, so that it
// allocates nothing per frame: it answers the Hello, then sends each
// request back as its response, on the request's ID.
func rawEcho(nc net.Conn) {
	defer nc.Close()
	buf := make([]byte, 4<<10)
	for first := true; ; first = false {
		if _, err := io.ReadFull(nc, buf[:4]); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint32(buf[:4]))
		if n > len(buf)-4 {
			return
		}
		if _, err := io.ReadFull(nc, buf[4:4+n]); err != nil {
			return
		}
		buf[4] = byte(wire.MsgShardQueryResp)
		if first {
			buf[4] = byte(wire.MsgHelloResp)
		}
		if _, err := nc.Write(buf[:4+n]); err != nil {
			return
		}
	}
}

// TestCallAllocationBudget: one Call on a warm idle session under
// context.Background() allocates the request frame, header and body
// joined (1), the length word wire.ReadFrame reads the response's through
// (1) and the response body the caller owns (1) — 3. The server here
// allocates nothing, so the count is the client's alone: no channel, no
// context.AfterFunc (a context that cannot end arms none) and no error
// target before an error. A change that moves it says so here.
func TestCallAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go rawEcho(nc)
		}
	}()
	c := New(ln.Addr().String(), Options{})
	defer c.Close()
	ctx := context.Background()
	body := []byte("ping")
	call := func() {
		resp, err := c.Call(ctx, wire.MsgShardQueryReq, body, wire.MsgShardQueryResp, true)
		if err != nil || string(resp) != "ping" {
			t.Fatalf("call: %q, %v", resp, err)
		}
	}
	call()
	if allocs := testing.AllocsPerRun(200, call); allocs != 3 {
		t.Errorf("%.0f allocations per call, want 3", allocs)
	}
}
