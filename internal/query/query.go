// Package query provides the relational layer over the VB-tree: predicate
// evaluation, compilation of conjunctive selection/projection queries into
// an index range plus a residual filter, and materialization of equijoins
// into view tables that carry their own VB-trees (the paper's §3.3
// treatment of joins: "materialize each join operation, and construct a
// VB-tree on the materialized view").
package query

import (
	"errors"
	"fmt"

	"edgeauth/internal/schema"
	"edgeauth/internal/vbtree"
)

// Op is a comparison operator.
type Op int

const (
	OpEQ Op = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
)

func (o Op) String() string {
	switch o {
	case OpEQ:
		return "="
	case OpNE:
		return "!="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Predicate is one comparison: column OP literal.
type Predicate struct {
	Column string
	Op     Op
	Value  schema.Datum
}

func (p Predicate) String() string {
	return fmt.Sprintf("%s %s %s", p.Column, p.Op, p.Value)
}

// eval applies the predicate to a value.
func (p Predicate) eval(v schema.Datum) bool {
	c := v.Compare(p.Value)
	switch p.Op {
	case OpEQ:
		return c == 0
	case OpNE:
		return c != 0
	case OpLT:
		return c < 0
	case OpLE:
		return c <= 0
	case OpGT:
		return c > 0
	case OpGE:
		return c >= 0
	default:
		return false
	}
}

// Spec is a conjunctive selection/projection over one table.
type Spec struct {
	// Predicates are ANDed together.
	Predicates []Predicate
	// Project lists returned columns; nil means all.
	Project []string
}

// Compile turns a Spec into a vbtree.Query: predicates on the key column
// tighten the index range (strict bounds keep a residual check, since keys
// are opaque to successor arithmetic), everything else becomes the
// residual filter evaluated at the edge server.
func Compile(sch *schema.Schema, spec Spec) (vbtree.Query, error) {
	if err := sch.Validate(); err != nil {
		return vbtree.Query{}, err
	}
	keyName := sch.KeyColumn().Name
	q := vbtree.Query{Project: spec.Project}

	var lo, hi *bound
	var residual []struct {
		col  int
		pred Predicate
	}

	for _, p := range spec.Predicates {
		ci := sch.ColumnIndex(p.Column)
		if ci < 0 {
			return vbtree.Query{}, fmt.Errorf("query: unknown column %q", p.Column)
		}
		if p.Value.Type != sch.Columns[ci].Type {
			return vbtree.Query{}, fmt.Errorf("query: predicate %s compares %v column with %v literal",
				p, sch.Columns[ci].Type, p.Value.Type)
		}
		if p.Column == keyName {
			switch p.Op {
			case OpEQ:
				lo = tighterLo(lo, bound{v: p.Value})
				hi = tighterHi(hi, bound{v: p.Value})
				continue
			case OpGE:
				lo = tighterLo(lo, bound{v: p.Value})
				continue
			case OpGT:
				lo = tighterLo(lo, bound{v: p.Value, strict: true})
			case OpLE:
				hi = tighterHi(hi, bound{v: p.Value})
				continue
			case OpLT:
				hi = tighterHi(hi, bound{v: p.Value, strict: true})
			case OpNE:
				// Falls through to the residual filter.
			}
		}
		residual = append(residual, struct {
			col  int
			pred Predicate
		}{ci, p})
	}

	if lo != nil {
		v := lo.v
		q.Lo = &v
	}
	if hi != nil {
		v := hi.v
		q.Hi = &v
	}
	if len(residual) > 0 {
		preds := residual
		for _, rp := range preds {
			q.FilterCols = append(q.FilterCols, rp.col)
		}
		q.Filter = func(t schema.Tuple) bool {
			for _, rp := range preds {
				if !rp.pred.eval(t.Values[rp.col]) {
					return false
				}
			}
			return true
		}
	}
	return q, nil
}

// bound is one side of a key range; strict marks an open endpoint whose
// exactness is enforced by the residual filter.
type bound struct {
	v      schema.Datum
	strict bool
}

// tighterLo keeps the larger lower bound.
func tighterLo(cur *bound, b bound) *bound {
	if cur == nil || b.v.Compare(cur.v) > 0 {
		return &b
	}
	return cur
}

// tighterHi keeps the smaller upper bound.
func tighterHi(cur *bound, b bound) *bound {
	if cur == nil || b.v.Compare(cur.v) < 0 {
		return &b
	}
	return cur
}

// EvalAll reports whether every predicate holds on the tuple.
func EvalAll(sch *schema.Schema, preds []Predicate, t schema.Tuple) (bool, error) {
	for _, p := range preds {
		ci := sch.ColumnIndex(p.Column)
		if ci < 0 {
			return false, fmt.Errorf("query: unknown column %q", p.Column)
		}
		if t.Values[ci].Type != p.Value.Type {
			return false, fmt.Errorf("query: predicate %s type mismatch", p)
		}
		if !p.eval(t.Values[ci]) {
			return false, nil
		}
	}
	return true, nil
}

// MaterializeEquiJoin computes L ⋈ R on lcol = rcol and returns the view's
// schema and tuples, keyed by a fresh sequential "rowid" column (views need
// their own unique primary key for the VB-tree). Left columns keep their
// names; right columns are prefixed with the right table's name and an
// underscore. The view is what the central server builds a VB-tree over,
// so edge servers can answer — and clients verify — join queries exactly
// like single-table ones.
func MaterializeEquiJoin(viewName string, lsch, rsch *schema.Schema,
	ltuples, rtuples []schema.Tuple, lcol, rcol string) (*schema.Schema, []schema.Tuple, error) {

	if viewName == "" {
		return nil, nil, errors.New("query: view name required")
	}
	li := lsch.ColumnIndex(lcol)
	if li < 0 {
		return nil, nil, fmt.Errorf("query: left join column %q not found", lcol)
	}
	ri := rsch.ColumnIndex(rcol)
	if ri < 0 {
		return nil, nil, fmt.Errorf("query: right join column %q not found", rcol)
	}
	if lsch.Columns[li].Type != rsch.Columns[ri].Type {
		return nil, nil, fmt.Errorf("query: join columns have types %v and %v",
			lsch.Columns[li].Type, rsch.Columns[ri].Type)
	}

	view := &schema.Schema{DB: lsch.DB, Table: viewName, Key: 0}
	view.Columns = append(view.Columns, schema.Column{Name: "rowid", Type: schema.TypeInt64})
	for _, c := range lsch.Columns {
		view.Columns = append(view.Columns, c)
	}
	for _, c := range rsch.Columns {
		view.Columns = append(view.Columns, schema.Column{
			Name: rsch.Table + "_" + c.Name,
			Type: c.Type,
		})
	}
	if err := view.Validate(); err != nil {
		return nil, nil, fmt.Errorf("query: view schema invalid (column collision?): %w", err)
	}

	// Hash join: index the right side by join key.
	type rkey string
	rindex := make(map[rkey][]int)
	for i, rt := range rtuples {
		if len(rt.Values) != len(rsch.Columns) {
			return nil, nil, fmt.Errorf("query: right tuple %d malformed", i)
		}
		k := rkey(rt.Values[ri].CanonicalBytes())
		rindex[k] = append(rindex[k], i)
	}
	var out []schema.Tuple
	rowid := int64(0)
	for i, lt := range ltuples {
		if len(lt.Values) != len(lsch.Columns) {
			return nil, nil, fmt.Errorf("query: left tuple %d malformed", i)
		}
		k := rkey(lt.Values[li].CanonicalBytes())
		for _, rj := range rindex[k] {
			vals := make([]schema.Datum, 0, len(view.Columns))
			vals = append(vals, schema.Int64(rowid))
			vals = append(vals, lt.Values...)
			vals = append(vals, rtuples[rj].Values...)
			out = append(out, schema.Tuple{Values: vals})
			rowid++
		}
	}
	return view, out, nil
}
