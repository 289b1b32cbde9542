//go:build !unix

package rpc

import "net"

// probeOf has no non-blocking peek off unix: an idle session a server
// closed is found when the call that takes it fails.
func probeOf(net.Conn) func() bool { return nil }
