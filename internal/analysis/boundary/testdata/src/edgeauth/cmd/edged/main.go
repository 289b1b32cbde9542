// Commands are not on the serving path: edged links tamper for its demo,
// and the profiler behind its -debug-addr.
package main

import (
	_ "net/http/pprof"

	"edgeauth/internal/tamper"
)

func main() { _ = tamper.Width }
