// A serving package importing the Naive baseline directly.
package vbtree

import (
	"fmt"

	"edgeauth/internal/digest"
	_ "edgeauth/internal/naive" // want `serving package edgeauth/internal/vbtree imports edgeauth/internal/naive, which is off the serving path`
)

var _ = fmt.Sprint(digest.Size)
