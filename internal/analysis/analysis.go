// Package analysis is a small, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis core: just enough Analyzer/Pass/
// Diagnostic surface for this repository's domain-invariant checkers
// (trustflow, pinpair, locksign, ctxflow, boundary) and the cmd/vetauth
// driver that runs them under `go vet -vettool`.
//
// The x/tools module is deliberately not a dependency — the module is
// stdlib-only — so the framework here re-creates the three pieces the
// suite needs: the analyzer abstraction (this file), the `go vet`
// unitchecker command protocol (internal/analysis/driver), and a fixture
// test harness with `// want` comment matching
// (internal/analysis/analyzertest).
//
// Suppressions: a diagnostic is dropped when the offending line (or the
// line above it) carries a comment of the form
//
//	//vetauth:ignore <analyzer>[,<analyzer>...] [reason...]
//	//vetauth:ignore                            (ignores every analyzer)
//
// mirroring //nolint. Reasons are free text and strongly encouraged:
// every ignore marks a spot where a domain invariant is intentionally
// relaxed and the reviewer deserves to know why.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //vetauth:ignore lists. Must be a valid identifier.
	Name string
	// Doc is the help text: first line is a one-line summary.
	Doc string
	// Run applies the analyzer to one package. Diagnostics are delivered
	// through pass.Report*; the any return is unused by this framework
	// (kept for x/tools signature compatibility).
	Run func(*Pass) (any, error)
}

func (a *Analyzer) String() string { return a.Name }

// A Pass presents one type-checked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic. The driver fills in suppression
	// filtering, so analyzers report unconditionally.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, positioned inside the analyzed package.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled by the driver from the reporting Analyzer
}

// Validate checks the analyzer set is well formed (unique usable names).
func Validate(analyzers []*Analyzer) error {
	seen := make(map[string]bool)
	for _, a := range analyzers {
		if a.Name == "" || a.Run == nil {
			return fmt.Errorf("analysis: analyzer %q missing name or run function", a.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("analysis: duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}
