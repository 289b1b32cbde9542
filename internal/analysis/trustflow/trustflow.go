// Package trustflow enforces the paper's edge-is-untrusted model at the
// type level: a value decoded from wire bytes that carries (or is bound
// to) a signature — deltas, signed shard maps, verification objects —
// is tainted at birth and must pass through a signature-verification
// call on every path before it may be trusted.
//
// Sources (taint introduction) are the signature-bearing decoders:
//
//	wire.Decode*            (deltas, snapshots, query responses)
//	shardmap.Decode*        (signed shard maps)
//	vo.DecodeVO, vo.DecodeResultSet, vo.DecodeAnswer
//
// A source may itself be built from sources (vo.DecodeAnswer parses a
// result set and a VO): returning what it decoded is its job and trusts
// nothing, because every caller sees the result as tainted.
//
// A verification event is any call whose name begins with "verify"
// (case-insensitive — sig.PublicKey.Verify, verify.Verifier.VerifyShardMap,
// (*Server).verifyDelta, ...) that receives the tainted value as its
// receiver or as an argument. Verification is a must-property: the
// taint clears only when a verify call dominates the use, i.e. happens
// on every incoming path.
//
// Trusting uses (sinks) while still tainted:
//
//   - returning the value (or anything rooted in it) to the caller;
//   - storing it (or anything rooted in it) into non-local state — a
//     field of the receiver or a parameter, or a package-level variable.
//
// Writes into function-local variables are not sinks: collecting
// responses into a local slice before verifying the batch (the PR 5
// scatter-gather shape) is the intended idiom.
//
// Like the rest of the suite, package matching is by base name so test
// fixtures can mirror wire/shardmap/vo/sig under short import paths.
package trustflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"edgeauth/internal/analysis"
	"edgeauth/internal/analysis/flow"
)

var Analyzer = &analysis.Analyzer{
	Name: "trustflow",
	Doc:  "flag use-as-trusted of decoded wire data before signature verification",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass, f) {
			continue // tests forge unsigned inputs on purpose
		}
		analysis.FuncBodies(f, func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) {
			var fn *types.Func
			if decl != nil && lit == nil {
				fn, _ = pass.TypesInfo.Defs[decl.Name].(*types.Func)
			}
			checkBody(pass, body, isDecodeSource(fn))
		})
	}
	return nil, nil
}

// state maps tainted variables to the position of the decode that
// produced them.
type state map[*types.Var]token.Pos

type checker struct {
	pass *analysis.Pass
	body *ast.BlockStmt
}

// checkBody checks one function body; decoder marks the body of a taint
// source, which may return what it decoded.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt, decoder bool) {
	g, ok := flow.Build(body)
	if !ok {
		return
	}
	c := &checker{pass: pass, body: body}
	an := &flow.Analysis[state]{
		Init: state{},
		Join: func(a, b state) state {
			// Taint survives a merge unless BOTH paths verified: union.
			m := clone(a)
			for k, v := range b {
				if _, ok := m[k]; !ok {
					m[k] = v
				}
			}
			return m
		},
		Equal: func(a, b state) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if _, ok := b[k]; !ok {
					return false
				}
			}
			return true
		},
		Transfer: c.transfer,
	}
	res := flow.Solve(g, an)

	// Sinks are judged against the fixpoint state before each statement.
	res.Visit(func(s state, stmt ast.Stmt) {
		if len(s) == 0 {
			return
		}
		switch x := stmt.(type) {
		case *ast.ReturnStmt:
			if decoder {
				return
			}
			for _, r := range x.Results {
				if v, pos := c.taintedRoot(s, r); v != nil {
					c.pass.Reportf(x.Pos(), "%s decoded from untrusted bytes at %s is returned without signature verification", v.Name(), c.pass.Fset.Position(pos))
				}
			}
		case *ast.AssignStmt:
			for i, l := range x.Lhs {
				if !c.nonLocalStore(l) {
					continue
				}
				var r ast.Expr
				if len(x.Rhs) == len(x.Lhs) {
					r = x.Rhs[i]
				} else if len(x.Rhs) == 1 {
					r = x.Rhs[0]
				} else {
					continue
				}
				if v, pos := c.taintedRoot(s, r); v != nil {
					c.pass.Reportf(x.Pos(), "%s decoded from untrusted bytes at %s is stored into shared state without signature verification", v.Name(), c.pass.Fset.Position(pos))
				}
			}
		}
	})
}

func clone(s state) state {
	m := make(state, len(s))
	for k, v := range s {
		m[k] = v
	}
	return m
}

func (c *checker) transfer(s state, stmt ast.Stmt) state {
	// Verification events anywhere in the statement clear taint first,
	// so `if err := sm.Verify(pub); err != nil` clears sm for the check
	// of its own condition.
	analysis.InspectShallow(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isVerifyCall(call) {
			return true
		}
		for _, e := range verifySubjects(call) {
			if v := c.rootVar(e); v != nil {
				if _, tainted := s[v]; tainted {
					s = clone(s)
					delete(s, v)
				}
			}
		}
		return true
	})

	switch x := stmt.(type) {
	case *ast.AssignStmt:
		return c.assign(s, x.Lhs, x.Rhs)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, n := range vs.Names {
						lhs[i] = n
					}
					s = c.assign(s, lhs, vs.Values)
				}
			}
		}
		return s
	default:
		return s
	}
}

func (c *checker) assign(s state, lhs, rhs []ast.Expr) state {
	// Sources: d, err := wire.DecodeDelta(b) taints every non-error
	// result name.
	if len(rhs) == 1 {
		if call, ok := rhs[0].(*ast.CallExpr); ok && isDecodeSource(analysis.Callee(c.pass.TypesInfo, call)) {
			s = clone(s)
			for _, l := range lhs {
				if v := c.localIdentVar(l); v != nil && !isErrorVar(v) && !isBasicVar(v) {
					// Basic-typed results (DecodeHello's protocol version)
					// carry no signature to verify and are not tracked.
					s[v] = call.Pos()
				}
			}
			return s
		}
	}
	// Propagation: aliases and projections of a tainted value are
	// tainted (y := sm, root := sm.Root, and the synthesized range
	// binding for `for _, sh := range sm.Shards`).
	if len(lhs) == len(rhs) {
		for i := range rhs {
			src, pos := c.taintedRoot(s, rhs[i])
			if src == nil {
				continue
			}
			v := c.localIdentVar(lhs[i])
			if v == nil && !c.nonLocalStore(lhs[i]) {
				// answers[i] = sm taints the local collection itself, so
				// the scatter-gather batch stays tracked until verified.
				v = c.rootVar(lhs[i])
			}
			if v != nil {
				s = clone(s)
				s[v] = pos
			}
		}
	} else if len(rhs) == 1 {
		// Multi-assign from one expression (range bindings, map/assert
		// commas): taint every local lhs if the source is tainted.
		if _, pos := c.taintedRoot(s, rhs[0]); pos != token.NoPos {
			for _, l := range lhs {
				if v := c.localIdentVar(l); v != nil && !isErrorVar(v) {
					s = clone(s)
					s[v] = pos
				}
			}
		}
	}
	return s
}

// taintedRoot resolves e's root identifier and reports the tainted var
// it denotes, if any.
func (c *checker) taintedRoot(s state, e ast.Expr) (*types.Var, token.Pos) {
	id := analysis.RootIdent(e)
	if id == nil {
		return nil, token.NoPos
	}
	v, ok := c.pass.TypesInfo.ObjectOf(id).(*types.Var)
	if !ok {
		return nil, token.NoPos
	}
	if pos, tainted := s[v]; tainted {
		return v, pos
	}
	return nil, token.NoPos
}

// rootVar resolves the variable at the root of a selector chain.
func (c *checker) rootVar(e ast.Expr) *types.Var {
	id := analysis.RootIdent(e)
	if id == nil {
		return nil
	}
	v, _ := c.pass.TypesInfo.ObjectOf(id).(*types.Var)
	return v
}

// localIdentVar returns the variable for a plain identifier lhs, nil
// for blank, selectors, and anything else.
func (c *checker) localIdentVar(e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	v, _ := c.pass.TypesInfo.ObjectOf(id).(*types.Var)
	return v
}

// nonLocalStore reports whether lhs writes through state that outlives
// the function: a selector or index rooted at a receiver, parameter, or
// package-level variable. Plain locals (including local slices/maps)
// are not sinks.
func (c *checker) nonLocalStore(lhs ast.Expr) bool {
	switch lhs.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return false
	}
	id := analysis.RootIdent(lhs)
	if id == nil {
		return true // exotic root (call result, deref chain): assume shared
	}
	v, ok := c.pass.TypesInfo.ObjectOf(id).(*types.Var)
	if !ok {
		return false
	}
	// Declared inside the body → local. Parameters and receivers are
	// declared in the signature, package vars at file scope: both are
	// outside the body's extent.
	return !(c.body.Pos() <= v.Pos() && v.Pos() < c.body.End())
}

// isDecodeSource matches the signature-bearing decoders by package base
// name and Decode* prefix.
func isDecodeSource(fn *types.Func) bool {
	if fn == nil || !strings.HasPrefix(fn.Name(), "Decode") {
		return false
	}
	switch analysis.PkgBase(fn) {
	case "wire", "shardmap":
		return true
	case "vo":
		// Only the signature-bearing decoders: DecodeStoredTuple reads
		// the replica's own heap, not wire bytes.
		return fn.Name() == "DecodeVO" || fn.Name() == "DecodeResultSet" || fn.Name() == "DecodeAnswer"
	}
	return false
}

// isVerifyCall matches any call whose name starts with "verify",
// case-insensitively: Verify, VerifyShardMap, verifyDelta, verifyMap...
func isVerifyCall(call *ast.CallExpr) bool {
	name := analysis.MethodName(call)
	return len(name) >= 6 && strings.EqualFold(name[:6], "verify")
}

// verifySubjects lists the expressions a verify call vouches for: its
// receiver (sm.Verify(pub)) and its arguments (s.verifyDelta(d)).
func verifySubjects(call *ast.CallExpr) []ast.Expr {
	var out []ast.Expr
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		out = append(out, sel.X)
	}
	out = append(out, call.Args...)
	return out
}

func isBasicVar(v *types.Var) bool {
	t := v.Type()
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Basic)
	return ok
}

func isErrorVar(v *types.Var) bool {
	t := v.Type()
	if t == nil {
		return false
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "error" && n.Obj().Pkg() == nil
}
