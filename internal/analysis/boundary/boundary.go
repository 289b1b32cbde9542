// Package boundary keeps the serving path closed under imports: a package
// the central server, the edge or the client runs may import only the
// standard library and other serving packages. That keeps the paper's
// reproduction (experiments, costmodel), the Naive baseline with its
// combiner (naive), the adversary (tamper) and the generators (workload,
// sqlmini) out of reach. Every serving package is checked, so the rule
// holds transitively.
//
// One standard package is refused as well: net/http/pprof, whose import
// registers the profiler's handlers on http.DefaultServeMux in every
// binary that links it. The daemons import it in cmd/, behind their
// -debug-addr.
//
// Test files are exempt, since tier-1 tests tie serving code to the cost
// model; so are cmd/ and examples/, which are not serving packages (edged
// links tamper for its demo mode). The check reads each non-test file's
// imports, because under go vet the package includes its test files.
package boundary

import (
	"strconv"
	"strings"

	"edgeauth/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "boundary",
	Doc:  "forbid serving packages from importing anything but the standard library and the serving path",
	Run:  run,
}

// module is the path of this module, whose packages are not standard.
const module = "edgeauth"

// serving is the serving path.
var serving = map[string]bool{
	module:                        true,
	module + "/internal/central":  true,
	module + "/internal/edge":     true,
	module + "/internal/client":   true,
	module + "/internal/rpc":      true,
	module + "/internal/wire":     true,
	module + "/internal/codec":    true,
	module + "/internal/vbtree":   true,
	module + "/internal/verify":   true,
	module + "/internal/vo":       true,
	module + "/internal/storage":  true,
	module + "/internal/shardmap": true,
	module + "/internal/peer":     true,
	module + "/internal/wal":      true,
	module + "/internal/sig":      true,
	module + "/internal/digest":   true,
	module + "/internal/schema":   true,
	module + "/internal/query":    true,
	module + "/internal/lock":     true,
	module + "/internal/israce":   true,
}

// profiler is the standard package no serving package may import.
const profiler = "net/http/pprof"

// isStandard reports whether path names a standard-library package: its
// first element is neither a domain nor this module.
func isStandard(path string) bool {
	first, _, _ := strings.Cut(path, "/")
	return !strings.Contains(first, ".") && first != module
}

func run(pass *analysis.Pass) (any, error) {
	if !serving[pass.Pkg.Path()] {
		return nil, nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if path == profiler {
				pass.Reportf(spec.Pos(), "serving package %s imports %s, which serves the profiler from every binary linking it", pass.Pkg.Path(), path)
				continue
			}
			if err != nil || isStandard(path) || serving[path] {
				continue
			}
			pass.Reportf(spec.Pos(), "serving package %s imports %s, which is off the serving path", pass.Pkg.Path(), path)
		}
	}
	return nil, nil
}
