// A serving package reaching the Naive baseline through a non-serving
// package: the import of that package is the finding. It also links the
// profiler, which only a command may.
package edge

import (
	_ "net/http/pprof" // want `imports net/http/pprof, which serves the profiler from every binary linking it`

	"edgeauth/internal/sqlmini" // want `imports edgeauth/internal/sqlmini, which is off the serving path`
)

var _ = sqlmini.Width
