// A serving package reaching the Naive baseline through a non-serving
// package: the import of that package is the finding.
package edge

import "edgeauth/internal/sqlmini" // want `imports edgeauth/internal/sqlmini, which is off the serving path`

var _ = sqlmini.Width
