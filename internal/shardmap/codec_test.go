package shardmap

import "edgeauth/internal/codec"

// The tests build hostile maps from the primitives Encode writes with.
var (
	appendU32   = codec.AppendU32
	appendU64   = codec.AppendU64
	appendStr   = codec.AppendStr
	appendBytes = codec.AppendBytes
)
