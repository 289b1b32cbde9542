// A clean serving package: the standard library and the serving path.
package wire

import (
	"errors"

	"edgeauth/internal/digest"
)

var ErrShort = errors.New("short")

const Width = digest.Size
