// Package wire mirrors the decoder surface of the real internal/wire
// package for analyzer fixtures.
package wire

type Delta struct {
	Version uint64
	Sig     []byte
}

func DecodeDelta(b []byte) (*Delta, error) { return &Delta{}, nil }

func DecodeHelloCaps(b []byte) (version, caps uint32, err error) { return 0, 0, nil }
