package query

import (
	"slices"
	"testing"

	"edgeauth/internal/schema"
	"edgeauth/internal/vo"
)

func testSchema() *schema.Schema {
	return &schema.Schema{
		DB:    "db",
		Table: "items",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TypeInt64},
			{Name: "cat", Type: schema.TypeString},
			{Name: "price", Type: schema.TypeFloat64},
		},
		Key: 0,
	}
}

func TestOpString(t *testing.T) {
	ops := map[Op]string{OpEQ: "=", OpNE: "!=", OpLT: "<", OpLE: "<=", OpGT: ">", OpGE: ">="}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%v renders %q", want, op.String())
		}
	}
	if Op(99).String() == "" {
		t.Error("unknown op should render")
	}
}

func TestPredicateEval(t *testing.T) {
	cases := []struct {
		p    Predicate
		v    schema.Datum
		want bool
	}{
		{Predicate{"id", OpEQ, schema.Int64(5)}, schema.Int64(5), true},
		{Predicate{"id", OpEQ, schema.Int64(5)}, schema.Int64(6), false},
		{Predicate{"id", OpNE, schema.Int64(5)}, schema.Int64(6), true},
		{Predicate{"id", OpLT, schema.Int64(5)}, schema.Int64(4), true},
		{Predicate{"id", OpLE, schema.Int64(5)}, schema.Int64(5), true},
		{Predicate{"id", OpGT, schema.Int64(5)}, schema.Int64(5), false},
		{Predicate{"id", OpGE, schema.Int64(5)}, schema.Int64(5), true},
		{Predicate{"cat", OpEQ, schema.Str("x")}, schema.Str("x"), true},
	}
	for _, c := range cases {
		if got := c.p.eval(&c.v); got != c.want {
			t.Errorf("%v on %v = %v, want %v", c.p, c.v, got, c.want)
		}
	}
}

func TestCompileKeyRange(t *testing.T) {
	sch := testSchema()
	q, err := Compile(sch, Spec{Predicates: []Predicate{
		{"id", OpGE, schema.Int64(10)},
		{"id", OpLE, schema.Int64(20)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if q.Lo == nil || !q.Lo.Equal(schema.Int64(10)) {
		t.Fatalf("Lo = %v", q.Lo)
	}
	if q.Hi == nil || !q.Hi.Equal(schema.Int64(20)) {
		t.Fatalf("Hi = %v", q.Hi)
	}
	if q.Project != nil {
		t.Fatalf("an unprojected range asks for columns %v", q.Project)
	}
}

func TestCompileEquality(t *testing.T) {
	sch := testSchema()
	q, err := Compile(sch, Spec{Predicates: []Predicate{{"id", OpEQ, schema.Int64(7)}}})
	if err != nil {
		t.Fatal(err)
	}
	if q.Lo == nil || q.Hi == nil || !q.Lo.Equal(*q.Hi) {
		t.Fatalf("EQ should pin both bounds: lo=%v hi=%v", q.Lo, q.Hi)
	}
}

// TestCompileStrictBoundsKeepResidual: a strict bound closes the range at
// its value, and the rows on the bound are Finish's to drop.
func TestCompileStrictBoundsKeepResidual(t *testing.T) {
	sch := testSchema()
	spec := Spec{Predicates: []Predicate{
		{"id", OpGT, schema.Int64(10)},
		{"id", OpLT, schema.Int64(20)},
	}}
	q, err := Compile(sch, spec)
	if err != nil {
		t.Fatal(err)
	}
	if q.Lo == nil || q.Hi == nil || !q.Lo.Equal(schema.Int64(10)) || !q.Hi.Equal(schema.Int64(20)) {
		t.Fatalf("strict bounds compile to [%v, %v], want [10, 20]", q.Lo, q.Hi)
	}
	rs := answer(sch, nil, 10, 15, 20)
	if err := Finish(sch, spec, q, rs); err != nil {
		t.Fatal(err)
	}
	if got := keysOf(rs); !slices.Equal(got, []int64{15}) {
		t.Fatalf("rows %v survive id > 10 AND id < 20, want [15]", got)
	}
}

func TestCompileTightestBounds(t *testing.T) {
	sch := testSchema()
	q, err := Compile(sch, Spec{Predicates: []Predicate{
		{"id", OpGE, schema.Int64(5)},
		{"id", OpGE, schema.Int64(15)}, // tighter
		{"id", OpLE, schema.Int64(50)},
		{"id", OpLE, schema.Int64(30)}, // tighter
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !q.Lo.Equal(schema.Int64(15)) || !q.Hi.Equal(schema.Int64(30)) {
		t.Fatalf("bounds = [%v,%v], want [15,30]", q.Lo, q.Hi)
	}
}

// TestCompileNonKeyFilter: non-key predicates bound nothing; the edge
// returns the columns they read, after the requested ones.
func TestCompileNonKeyFilter(t *testing.T) {
	sch := testSchema()
	project := []string{"id", "price"}
	q, err := Compile(sch, Spec{
		Predicates: []Predicate{
			{"cat", OpEQ, schema.Str("tools")},
			{"price", OpGT, schema.Float64(9.5)},
		},
		Project: project,
	})
	if err != nil {
		t.Fatal(err)
	}
	if q.Lo != nil || q.Hi != nil {
		t.Fatal("non-key predicates must not bound the key range")
	}
	if !slices.Equal(q.Project, []string{"id", "price", "cat"}) {
		t.Fatalf("projection = %v, want [id price cat]", q.Project)
	}
	if !slices.Equal(project, []string{"id", "price"}) {
		t.Fatalf("Compile changed the spec's projection to %v", project)
	}
}

// TestCompileTable: the range and the columns of each predicate shape.
func TestCompileTable(t *testing.T) {
	sch := testSchema()
	i := schema.Int64
	for _, tc := range []struct {
		name    string
		preds   []Predicate
		project []string
		lo, hi  *int64
		cols    []string
	}{
		{"no predicate", nil, nil, nil, nil, nil},
		{"point", []Predicate{{"id", OpEQ, i(7)}}, []string{"cat"}, ptr(7), ptr(7), []string{"cat"}},
		{"strict bounds close", []Predicate{{"id", OpGT, i(3)}, {"id", OpLT, i(9)}}, nil, ptr(3), ptr(9), nil},
		{"!= on the key bounds nothing", []Predicate{{"id", OpNE, i(4)}}, []string{"price"}, nil, nil, []string{"price"}},
		{"empty range stays empty", []Predicate{{"id", OpGE, i(9)}, {"id", OpLE, i(3)}}, nil, ptr(9), ptr(3), nil},
		{"the key column is never added", []Predicate{{"id", OpGE, i(1)}}, []string{"cat"}, ptr(1), nil, []string{"cat"}},
		{"a requested predicate column is not added again", []Predicate{{"cat", OpEQ, schema.Str("x")}}, []string{"cat", "id"}, nil, nil, []string{"cat", "id"}},
		{"added in predicate order, once", []Predicate{
			{"price", OpLT, schema.Float64(2)}, {"cat", OpNE, schema.Str("x")}, {"price", OpGT, schema.Float64(1)},
		}, []string{"id"}, nil, nil, []string{"id", "price", "cat"}},
		{"nil stays nil", []Predicate{{"cat", OpEQ, schema.Str("x")}}, nil, nil, nil, nil},
	} {
		q, err := Compile(sch, Spec{Predicates: tc.preds, Project: tc.project})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !sameBound(q.Lo, tc.lo) || !sameBound(q.Hi, tc.hi) {
			t.Errorf("%s: range [%v, %v]", tc.name, q.Lo, q.Hi)
		}
		if !slices.Equal(q.Project, tc.cols) || (q.Project == nil) != (tc.cols == nil) {
			t.Errorf("%s: columns %v, want %v", tc.name, q.Project, tc.cols)
		}
	}
}

func TestCompileValidation(t *testing.T) {
	sch := testSchema()
	if _, err := Compile(sch, Spec{Predicates: []Predicate{{"ghost", OpEQ, schema.Int64(1)}}}); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := Compile(sch, Spec{Predicates: []Predicate{{"id", OpEQ, schema.Str("x")}}}); err == nil {
		t.Fatal("type-mismatched predicate accepted")
	}
	for _, project := range [][]string{{"cat", "cat"}, {"id", "cat", "id"}, {"ghost"}} {
		if _, err := Compile(sch, Spec{Project: project}); err == nil {
			t.Fatalf("projection %v accepted", project)
		}
	}
}

// TestFinish: the column check, the row drop and the column trim.
func TestFinish(t *testing.T) {
	sch := testSchema()
	i := schema.Int64
	for _, tc := range []struct {
		name    string
		spec    Spec
		cols    []string // the answer's columns; nil: as compiled
		keys    []int64  // the answer's rows
		want    []int64  // the rows kept
		outCols []string // the columns kept
		fails   bool
	}{
		{name: "a range keeps every row",
			spec: Spec{Predicates: []Predicate{{"id", OpGE, i(1)}}},
			keys: []int64{1, 2, 3}, want: []int64{1, 2, 3}, outCols: []string{"id", "cat", "price"}},
		{name: "!= on the key drops its row",
			spec: Spec{Predicates: []Predicate{{"id", OpNE, i(2)}}, Project: []string{"price"}},
			keys: []int64{1, 2, 3}, want: []int64{1, 3}, outCols: []string{"price"}},
		{name: "a non-key predicate reads an added column, which goes",
			spec: Spec{Predicates: []Predicate{{"cat", OpEQ, schema.Str("even")}}, Project: []string{"price", "id"}},
			keys: []int64{1, 2, 3, 4}, want: []int64{2, 4}, outCols: []string{"price", "id"}},
		{name: "every predicate holds, on the key and off it",
			spec: Spec{Predicates: []Predicate{{"cat", OpEQ, schema.Str("odd")}, {"id", OpGT, i(1)}, {"price", OpLE, schema.Float64(5)}}},
			keys: []int64{1, 3, 5, 7}, want: []int64{3, 5}, outCols: []string{"id", "cat", "price"}},
		{name: "no row qualifies",
			spec: Spec{Predicates: []Predicate{{"cat", OpEQ, schema.Str("none")}}, Project: []string{"id"}},
			keys: []int64{1, 2}, want: []int64{}, outCols: []string{"id"}},
		{name: "reordered columns are refused",
			spec: Spec{Project: []string{"id", "cat"}}, cols: []string{"cat", "id"}, keys: []int64{1}, fails: true},
		{name: "a projection without the predicate column is refused",
			spec: Spec{Predicates: []Predicate{{"cat", OpEQ, schema.Str("odd")}}, Project: []string{"id"}},
			cols: []string{"id"}, keys: []int64{1}, fails: true},
		{name: "an unprojected answer must carry every column, in schema order",
			spec: Spec{}, cols: []string{"id", "price", "cat"}, keys: []int64{1}, fails: true},
	} {
		q, err := Compile(sch, tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cols := tc.cols
		if cols == nil {
			cols = q.Project
		}
		rs := answer(sch, cols, tc.keys...)
		err = Finish(sch, tc.spec, q, rs)
		if tc.fails {
			if err == nil {
				t.Errorf("%s: accepted", tc.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := keysOf(rs); !slices.Equal(got, tc.want) {
			t.Errorf("%s: rows %v, want %v", tc.name, got, tc.want)
		}
		if !slices.Equal(rs.Columns, tc.outCols) || rs.Validate() != nil {
			t.Errorf("%s: columns %v (%v), want %v", tc.name, rs.Columns, rs.Validate(), tc.outCols)
		}
		for j, tp := range rs.Tuples {
			if id := slices.Index(rs.Columns, "id"); id >= 0 && !tp.Values[id].Equal(rs.Keys[j]) {
				t.Errorf("%s: row %d is %v under key %v", tc.name, j, tp, rs.Keys[j])
			}
		}
	}
}

// TestFinishAllocatesNothing: the client finishes every answer on the
// serving path.
func TestFinishAllocatesNothing(t *testing.T) {
	sch := testSchema()
	spec := Spec{Predicates: []Predicate{{"id", OpGE, schema.Int64(0)}, {"cat", OpNE, schema.Str("odd")}}, Project: []string{"id"}}
	q, err := Compile(sch, spec)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]int64, 64)
	for j := range keys {
		keys[j] = int64(j)
	}
	answers := make([]*vo.ResultSet, 11) // AllocsPerRun runs once more than asked
	for k := range answers {
		answers[k] = answer(sch, q.Project, keys...)
	}
	k := 0
	allocs := testing.AllocsPerRun(10, func() {
		if err := Finish(sch, spec, q, answers[k]); err != nil {
			t.Fatal(err)
		}
		k++
	})
	if allocs != 0 || len(answers[0].Tuples) != 32 {
		t.Fatalf("finishing a 64-row answer: %.0f allocations, %d rows kept", allocs, len(answers[0].Tuples))
	}
}

// answer is a result set over cols (nil: every column) of the rows with
// the given keys: cat is "odd" or "even", price the key.
func answer(sch *schema.Schema, cols []string, keys ...int64) *vo.ResultSet {
	if cols == nil {
		for _, c := range sch.Columns {
			cols = append(cols, c.Name)
		}
	}
	rs := &vo.ResultSet{DB: sch.DB, Table: sch.Table, Columns: cols}
	for _, k := range keys {
		cat := "even"
		if k%2 != 0 {
			cat = "odd"
		}
		row := map[string]schema.Datum{"id": schema.Int64(k), "cat": schema.Str(cat), "price": schema.Float64(float64(k))}
		var tp schema.Tuple
		for _, c := range cols {
			tp.Values = append(tp.Values, row[c])
		}
		rs.Keys = append(rs.Keys, schema.Int64(k))
		rs.Tuples = append(rs.Tuples, tp)
	}
	return rs
}

func keysOf(rs *vo.ResultSet) []int64 {
	out := []int64{}
	for _, k := range rs.Keys {
		out = append(out, k.I)
	}
	return out
}

func ptr(v int64) *int64 { return &v }

func sameBound(b *schema.Datum, want *int64) bool {
	if b == nil || want == nil {
		return b == nil && want == nil
	}
	return b.Equal(schema.Int64(*want))
}

func usersSchema() *schema.Schema {
	return &schema.Schema{
		DB:    "db",
		Table: "users",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TypeInt64},
			{Name: "name", Type: schema.TypeString},
		},
		Key: 0,
	}
}

func ordersSchema() *schema.Schema {
	return &schema.Schema{
		DB:    "db",
		Table: "orders",
		Columns: []schema.Column{
			{Name: "oid", Type: schema.TypeInt64},
			{Name: "user_id", Type: schema.TypeInt64},
			{Name: "total", Type: schema.TypeFloat64},
		},
		Key: 0,
	}
}

func TestMaterializeEquiJoin(t *testing.T) {
	users := []schema.Tuple{
		schema.NewTuple(schema.Int64(1), schema.Str("alice")),
		schema.NewTuple(schema.Int64(2), schema.Str("bob")),
		schema.NewTuple(schema.Int64(3), schema.Str("carol")),
	}
	orders := []schema.Tuple{
		schema.NewTuple(schema.Int64(100), schema.Int64(1), schema.Float64(9.5)),
		schema.NewTuple(schema.Int64(101), schema.Int64(2), schema.Float64(12)),
		schema.NewTuple(schema.Int64(102), schema.Int64(1), schema.Float64(3.25)),
		schema.NewTuple(schema.Int64(103), schema.Int64(9), schema.Float64(1)), // dangling
	}
	view, rows, err := MaterializeEquiJoin("user_orders", ordersSchema(), usersSchema(),
		orders, users, "user_id", "id")
	if err != nil {
		t.Fatal(err)
	}
	if view.Table != "user_orders" || view.KeyColumn().Name != "rowid" {
		t.Fatalf("view identity: %+v", view)
	}
	// rowid + 3 order cols + 2 prefixed user cols.
	if len(view.Columns) != 6 {
		t.Fatalf("view columns = %v", view.Columns)
	}
	if view.ColumnIndex("users_name") < 0 {
		t.Fatalf("right columns not prefixed: %v", view.Columns)
	}
	if len(rows) != 3 {
		t.Fatalf("join produced %d rows, want 3 (dangling order dropped)", len(rows))
	}
	// rowids sequential and unique.
	for i, r := range rows {
		if !r.Values[0].Equal(schema.Int64(int64(i))) {
			t.Fatalf("rowid %d = %v", i, r.Values[0])
		}
		if len(r.Values) != 6 {
			t.Fatalf("row %d has %d values", i, len(r.Values))
		}
	}
	// Join semantics: order 100 matched alice.
	if rows[0].Values[5].S != "alice" {
		t.Fatalf("row 0 joined name = %v", rows[0].Values[5])
	}
}

func TestMaterializeEquiJoinValidation(t *testing.T) {
	u, o := usersSchema(), ordersSchema()
	if _, _, err := MaterializeEquiJoin("", o, u, nil, nil, "user_id", "id"); err == nil {
		t.Fatal("empty view name accepted")
	}
	if _, _, err := MaterializeEquiJoin("v", o, u, nil, nil, "ghost", "id"); err == nil {
		t.Fatal("bad left column accepted")
	}
	if _, _, err := MaterializeEquiJoin("v", o, u, nil, nil, "user_id", "ghost"); err == nil {
		t.Fatal("bad right column accepted")
	}
	if _, _, err := MaterializeEquiJoin("v", o, u, nil, nil, "total", "id"); err == nil {
		t.Fatal("type-mismatched join accepted")
	}
}
