//go:build unix

package rpc

import (
	"net"
	"syscall"
)

// probeOf returns a probe of nc's socket: one recv(MSG_PEEK|MSG_DONTWAIT)
// that reports whether the connection is open with nothing to read. A
// peer's close reads as end of stream or as an error, and a byte no
// request asked for means the stream is out of step; either way the
// session is not reused. It returns nil when nc is not a socket.
func probeOf(nc net.Conn) func() bool {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	var buf [1]byte
	var idle bool
	peek := func(fd uintptr) bool {
		_, _, err := syscall.Recvfrom(int(fd), buf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		idle = err == syscall.EAGAIN
		return true
	}
	return func() bool { return rc.Read(peek) == nil && idle }
}
