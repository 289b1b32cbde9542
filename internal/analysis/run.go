package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Package bundles the type-checked inputs a Pass needs. Drivers (the
// vet-protocol unit runner, the test harness)
// construct one and hand it to Run.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Run applies the analyzers to one package and returns the surviving
// diagnostics (suppressions already filtered), ordered by position.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	if err := Validate(analyzers); err != nil {
		return nil, err
	}
	ign := collectIgnores(pkg.Fset, pkg.Files)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		pass.Report = func(d Diagnostic) {
			d.Analyzer = a.Name
			if ign.suppresses(pkg.Fset, d) {
				return
			}
			out = append(out, d)
		}
		if _, err := a.Run(pass); err != nil {
			return out, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}

// ignoreSet indexes //vetauth:ignore comments by file and line.
type ignoreSet map[string]map[int][]string // filename -> line -> analyzer names ("" = all)

const ignorePrefix = "vetauth:ignore"

func collectIgnores(fset *token.FileSet, files []*ast.File) ignoreSet {
	set := make(ignoreSet)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, ignorePrefix)
				names := []string{""} // bare form: ignore everything
				if rest != "" {
					if rest[0] != ' ' && rest[0] != '\t' {
						continue // e.g. "vetauth:ignored" — not our directive
					}
					fields := strings.Fields(rest)
					if len(fields) > 0 {
						names = strings.Split(fields[0], ",")
					}
				}
				posn := fset.Position(c.Pos())
				lines := set[posn.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					set[posn.Filename] = lines
				}
				lines[posn.Line] = append(lines[posn.Line], names...)
			}
		}
	}
	return set
}

// suppresses reports whether d's line (or the line directly above it)
// carries an ignore directive naming d's analyzer.
func (s ignoreSet) suppresses(fset *token.FileSet, d Diagnostic) bool {
	posn := fset.Position(d.Pos)
	lines := s[posn.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{posn.Line, posn.Line - 1} {
		for _, name := range lines[line] {
			if name == "" || name == d.Analyzer {
				return true
			}
		}
	}
	return false
}
