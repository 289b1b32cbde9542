// Commands are not on the serving path: edged links tamper for its demo.
package main

import "edgeauth/internal/tamper"

func main() { _ = tamper.Width }
