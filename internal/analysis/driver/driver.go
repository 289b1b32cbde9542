// Package driver runs an analysis suite as a `go vet -vettool` backend,
// so test files and build-tag variants are analysed as cmd/go builds
// them. It speaks cmd/go's unit-checking protocol, the same one
// golang.org/x/tools/go/analysis/unitchecker implements:
//
//	vetauth -V=full          print a tool identity ending in a
//	                         content-derived buildID= field
//	vetauth -flags           print the tool's analyzer flags as JSON
//	vetauth <file>.cfg       analyze one package described by the JSON
//	                         config cmd/go wrote; diagnostics go to
//	                         stderr, exit status 1 reports findings
//
// Imports are type-checked from the compiler export data files listed
// in the config's PackageFile map, so a unit run never rebuilds
// dependencies.
package driver

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"edgeauth/internal/analysis"
)

// Main is the entry point for a vettool built around the given
// analyzers. It never returns.
func Main(analyzers ...*analysis.Analyzer) {
	if err := analysis.Validate(analyzers); err != nil {
		fatalf("%v", err)
	}
	cfgFile := ""
	for _, arg := range os.Args[1:] {
		switch {
		case arg == "-V=full" || arg == "--V=full":
			printVersion()
			os.Exit(0)
		case arg == "-flags" || arg == "--flags":
			// No analyzer flags: report an empty set so cmd/go forwards
			// nothing.
			fmt.Println("[]")
			os.Exit(0)
		case strings.HasSuffix(arg, ".cfg"):
			cfgFile = arg
		case strings.HasPrefix(arg, "-"):
			fatalf("unrecognized flag %s", arg)
		default:
			fatalf("unexpected argument %s\n%s", arg, usage())
		}
	}
	if cfgFile == "" {
		fatalf("no package config\n%s", usage())
	}
	findings, err := runUnit(cfgFile, analyzers)
	if err != nil {
		fatalf("%v", err)
	}
	if findings {
		os.Exit(1)
	}
}

// usage says how the tool is run: by go vet, never by hand.
func usage() string {
	return fmt.Sprintf("usage: go vet -vettool=/path/to/%s ./...", progname())
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", progname(), fmt.Sprintf(format, args...))
	os.Exit(2)
}

func progname() string { return filepath.Base(os.Args[0]) }

// printVersion emits the -V=full identity line. cmd/go requires the
// second field to be "version" and, for "devel" tools, a final field
// "buildID=<content id>"; hashing our own executable makes the ID
// track the tool's actual behavior, so vet results are re-cached when
// the analyzers change.
func printVersion() {
	h := sha256.New()
	exe, err := os.Executable()
	if err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version devel buildID=%02x\n", progname(), string(h.Sum(nil)))
}

// unitConfig is the JSON configuration cmd/go writes for each package
// (a subset of x/tools unitchecker.Config — unused fields are accepted
// and ignored by encoding/json).
type unitConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func runUnit(cfgFile string, analyzers []*analysis.Analyzer) (findings bool, err error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return false, err
	}
	cfg := new(unitConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		return false, fmt.Errorf("cannot decode JSON config file %s: %v", cfgFile, err)
	}
	// The suite carries no cross-package facts, so the "vetx" output is
	// an empty placeholder — but it must exist for cmd/go to cache the
	// run.
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			os.WriteFile(cfg.VetxOutput, []byte{}, 0666)
		}
	}
	if cfg.VetxOnly {
		writeVetx()
		return false, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				writeVetx()
				return false, nil
			}
			return false, err
		}
		files = append(files, f)
	}

	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		// path is a resolved package path, not a source import path.
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(path)
	})

	pkg, info, err := typecheck(fset, cfg.ImportPath, files, imp, cfg.GoVersion)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx()
			return false, nil
		}
		return false, err
	}

	diags, err := analysis.Run(&analysis.Package{Fset: fset, Files: files, Types: pkg, Info: info}, analyzers)
	writeVetx()
	if err != nil {
		return false, err
	}
	printDiags(fset, diags)
	return len(diags) > 0, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func typecheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer, goVersion string) (*types.Package, *types.Info, error) {
	tc := &types.Config{
		Importer:  imp,
		GoVersion: goVersion,
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, err := tc.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

func printDiags(fset *token.FileSet, diags []analysis.Diagnostic) {
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
}
