package flow

import "go/ast"

// An Analysis[S] defines one forward dataflow problem over a Graph.
// S is the per-program-point state (must be treated as immutable by
// Transfer/Assume — return fresh values).
type Analysis[S any] struct {
	// Init is the state on entry to the function.
	Init S
	// Join merges states at control-flow merge points.
	Join func(a, b S) S
	// Equal decides fixpoint convergence.
	Equal func(a, b S) bool
	// Transfer applies one statement's effect. Synthesized condition
	// evaluations arrive as *ast.ExprStmt; range bindings as
	// *ast.AssignStmt with the range operand as sole Rhs.
	Transfer func(s S, stmt ast.Stmt) S
	// Assume, if non-nil, refines the state on entry to a block guarded
	// by a branch condition (Block.Assume).
	Assume func(s S, a *Assumption) S
}

// A Result holds the fixpoint solution: the state before each block.
type Result[S any] struct {
	g        *Graph
	an       *Analysis[S]
	in       []S
	reached  []bool
	hasState func(int) bool
}

// Solve runs the worklist algorithm to a fixpoint and returns the
// solution. Blocks never reached from entry report Reached()==false
// and are skipped by the visitation helpers.
func Solve[S any](g *Graph, an *Analysis[S]) *Result[S] {
	n := len(g.Blocks)
	r := &Result[S]{
		g:       g,
		an:      an,
		in:      make([]S, n),
		reached: make([]bool, n),
	}
	r.in[g.Entry.index] = an.Init
	r.reached[g.Entry.index] = true
	work := []*Block{g.Entry}
	inWork := make([]bool, n)
	inWork[g.Entry.index] = true
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		inWork[blk.index] = false
		out := r.in[blk.index]
		for _, s := range blk.Stmts {
			out = an.Transfer(out, s)
		}
		for _, succ := range blk.Succs {
			next := out
			if an.Assume != nil && succ.Assume != nil {
				next = an.Assume(next, succ.Assume)
			}
			if r.reached[succ.index] {
				merged := an.Join(r.in[succ.index], next)
				if an.Equal(merged, r.in[succ.index]) {
					continue
				}
				r.in[succ.index] = merged
			} else {
				r.reached[succ.index] = true
				r.in[succ.index] = next
			}
			if !inWork[succ.index] {
				work = append(work, succ)
				inWork[succ.index] = true
			}
		}
	}
	return r
}

// Visit calls fn with the state holding immediately *before* each
// reachable statement, in an arbitrary block order. Use it to check
// per-statement conditions ("a Sign call while a lock is held").
func (r *Result[S]) Visit(fn func(state S, stmt ast.Stmt)) {
	for _, blk := range r.g.Blocks {
		if !r.reached[blk.index] {
			continue
		}
		s := r.in[blk.index]
		if r.an.Assume != nil && blk.Assume != nil {
			// in[] already has the assumption applied on edge entry; this
			// branch is only for completeness if in was seeded otherwise.
			_ = blk
		}
		for _, stmt := range blk.Stmts {
			fn(s, stmt)
			s = r.an.Transfer(s, stmt)
		}
	}
}

// At returns the fixpoint state on entry to blk, with ok=false for
// blocks unreachable from entry.
func (r *Result[S]) At(blk *Block) (S, bool) {
	if blk == nil || !r.reached[blk.index] {
		var zero S
		return zero, false
	}
	return r.in[blk.index], true
}

// Returns calls fn with the state immediately before each reachable
// ReturnStmt, letting analyses distinguish individual exits (pinpair's
// "which return leaks the pin" reporting).
func (r *Result[S]) Returns(fn func(state S, ret *ast.ReturnStmt)) {
	r.Visit(func(state S, stmt ast.Stmt) {
		if ret, ok := stmt.(*ast.ReturnStmt); ok {
			fn(state, ret)
		}
	})
}
