package wire

import "edgeauth/internal/codec"

// The tests build hostile bodies from the primitives every encoder here
// writes with.
var (
	appendU8    = codec.AppendU8
	appendU32   = codec.AppendU32
	appendU64   = codec.AppendU64
	appendStr   = codec.AppendStr
	appendBytes = codec.AppendBytes
)
