// Package query provides the relational layer over the VB-tree:
// compilation of conjunctive selection/projection queries into the key
// range an edge answers (Compile), the client's evaluation of the whole
// query on the verified rows of that answer (Finish), and materialization
// of equijoins into view tables that carry their own VB-trees (the
// paper's §3.3 treatment of joins: "materialize each join operation, and
// construct a VB-tree on the materialized view").
//
// An edge evaluates no predicate: it returns every row of the query's
// closed key range, with the columns the predicates read, and the client
// drops the rows that fail one. A row a filtering edge left out would
// travel as a digest, which proves nothing about the predicate.
package query

import (
	"errors"
	"fmt"
	"slices"

	"edgeauth/internal/schema"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/vo"
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
func (p *Predicate) eval(v *schema.Datum) bool {
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

// Compile turns a Spec into the vbtree.Query an edge answers: the closed
// key range of the key predicates, projected to the requested columns
// plus each non-key predicate column not requested, in predicate order
// (Project stays nil when the spec's is). A strict bound closes at its
// value and != on the key bounds nothing: keys are opaque to successor
// arithmetic, so Finish drops the rows on the bound. A projection naming
// a column the schema lacks, or one column twice, is refused: it is the
// caller's mistake, which a client finds before it asks an edge.
func Compile(sch *schema.Schema, spec Spec) (vbtree.Query, error) {
	if err := sch.Validate(); err != nil {
		return vbtree.Query{}, err
	}
	for i, name := range spec.Project {
		if sch.ColumnIndex(name) < 0 {
			return vbtree.Query{}, fmt.Errorf("query: unknown column %q", name)
		}
		if slices.Contains(spec.Project[:i], name) {
			return vbtree.Query{}, fmt.Errorf("query: column %q projected twice", name)
		}
	}
	// Clipped, so that an added column never lands in the caller's array.
	q := vbtree.Query{Project: slices.Clip(spec.Project)}
	for _, p := range spec.Predicates {
		ci := sch.ColumnIndex(p.Column)
		if ci < 0 {
			return vbtree.Query{}, fmt.Errorf("query: unknown column %q", p.Column)
		}
		if p.Value.Type != sch.Columns[ci].Type {
			return vbtree.Query{}, fmt.Errorf("query: predicate %s compares %v column with %v literal",
				p, sch.Columns[ci].Type, p.Value.Type)
		}
		if ci != sch.Key {
			if q.Project != nil && !slices.Contains(q.Project, p.Column) {
				q.Project = append(q.Project, p.Column)
			}
			continue
		}
		switch p.Op {
		case OpEQ:
			q.Lo, q.Hi = tighterLo(q.Lo, p.Value), tighterHi(q.Hi, p.Value)
		case OpGE, OpGT:
			q.Lo = tighterLo(q.Lo, p.Value)
		case OpLE, OpLT:
			q.Hi = tighterHi(q.Hi, p.Value)
		}
	}
	return q, nil
}

// tighterLo keeps the larger lower bound.
func tighterLo(cur *schema.Datum, v schema.Datum) *schema.Datum {
	if cur == nil || v.Compare(*cur) > 0 {
		return &v
	}
	return cur
}

// tighterHi keeps the smaller upper bound.
func tighterHi(cur *schema.Datum, v schema.Datum) *schema.Datum {
	if cur == nil || v.Compare(*cur) < 0 {
		return &v
	}
	return cur
}

// Finish turns rs, a verified answer to q = Compile(sch, spec), into the
// answer to spec, in place and without allocating. The answer's columns
// must be q.Project in order, or every schema column when it is nil:
// the VO proves the values, not which columns were asked for. Then the
// rows failing a predicate are dropped — a key predicate reads the row's
// key — and last the columns Compile added.
func Finish(sch *schema.Schema, spec Spec, q vbtree.Query, rs *vo.ResultSet) error {
	same := slices.Equal(rs.Columns, q.Project)
	if q.Project == nil {
		same = len(rs.Columns) == len(sch.Columns)
		for i := 0; same && i < len(rs.Columns); i++ {
			same = rs.Columns[i] == sch.Columns[i].Name
		}
	}
	if !same {
		var want any = q.Project
		if q.Project == nil {
			want = "every column"
		}
		return fmt.Errorf("query: answer columns %v, the query asks for %v", rs.Columns, want)
	}
	for i := range spec.Predicates {
		p := &spec.Predicates[i]
		at := -1 // the row's key
		if sch.ColumnIndex(p.Column) != sch.Key {
			at = slices.Index(rs.Columns, p.Column)
		}
		kept := 0
		for j := range rs.Tuples {
			v := &rs.Keys[j]
			if at >= 0 {
				v = &rs.Tuples[j].Values[at]
			}
			if !p.eval(v) {
				continue
			}
			if kept != j {
				rs.Keys[kept], rs.Tuples[kept] = rs.Keys[j], rs.Tuples[j]
			}
			kept++
		}
		clear(rs.Keys[kept:])
		clear(rs.Tuples[kept:])
		rs.Keys, rs.Tuples = rs.Keys[:kept], rs.Tuples[:kept]
	}
	if n := len(spec.Project); spec.Project != nil && n < len(rs.Columns) {
		rs.Columns = rs.Columns[:n]
		for j := range rs.Tuples {
			rs.Tuples[j].Values = rs.Tuples[j].Values[:n]
		}
	}
	return nil
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
