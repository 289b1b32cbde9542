package client

import (
	"context"
	"testing"

	"edgeauth/internal/query"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/workload"
)

// TestFilterMatchesOracle: the edge answers a query's key range and the
// client applies the rest of it, so whatever the predicates, the verified
// rows are exactly those a scan of the table filtered in Go keeps, under
// exactly the columns asked for. The table is 300 rows in 3 shards.
func TestFilterMatchesOracle(t *testing.T) {
	ctx := context.Background()
	const rows = 300
	d := deployScheme(t, rows, sig.SchemeEd25519, 3)
	spec := workload.DefaultSpec(rows)
	sch, err := spec.Schema()
	if err != nil {
		t.Fatal(err)
	}
	table, err := spec.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	i := func(v int64) schema.Datum { return schema.Int64(v) }
	cat := func(c int) schema.Datum { return schema.Str(workload.CategoryName(c)) }
	id := func(tp schema.Tuple) int64 { return tp.Values[0].I }
	for _, tc := range []struct {
		name    string
		preds   []query.Predicate
		project []string
		keep    func(schema.Tuple) bool
		shards  int // how many shards the range spans
	}{
		{"non-key =",
			[]query.Predicate{{Column: "cat", Op: query.OpEQ, Value: cat(3)}},
			[]string{"id", "cat"},
			func(tp schema.Tuple) bool { return tp.Values[1].S == workload.CategoryName(3) }, 3},
		{"strict bounds",
			[]query.Predicate{{Column: "id", Op: query.OpGT, Value: i(40)}, {Column: "id", Op: query.OpLT, Value: i(70)}},
			[]string{"a2", "id"},
			func(tp schema.Tuple) bool { return id(tp) > 40 && id(tp) < 70 }, 1},
		{"!= on the key",
			[]query.Predicate{{Column: "id", Op: query.OpGE, Value: i(10)}, {Column: "id", Op: query.OpLE, Value: i(30)}, {Column: "id", Op: query.OpNE, Value: i(20)}},
			nil,
			func(tp schema.Tuple) bool { return id(tp) >= 10 && id(tp) <= 30 && id(tp) != 20 }, 1},
		{"a predicate column not projected",
			[]query.Predicate{{Column: "cat", Op: query.OpNE, Value: cat(5)}, {Column: "id", Op: query.OpLE, Value: i(60)}},
			[]string{"a3"},
			func(tp schema.Tuple) bool { return tp.Values[1].S != workload.CategoryName(5) && id(tp) <= 60 }, 1},
		{"several shards",
			[]query.Predicate{{Column: "id", Op: query.OpGT, Value: i(50)}, {Column: "a4", Op: query.OpGE, Value: schema.Str("m")}, {Column: "cat", Op: query.OpLT, Value: cat(10)}},
			[]string{"cat", "id"},
			func(tp schema.Tuple) bool {
				return id(tp) > 50 && tp.Values[4].S >= "m" && tp.Values[1].S < workload.CategoryName(10)
			}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := d.client.Query(ctx, "items", tc.preds, tc.project)
			if err != nil {
				t.Fatal(err)
			}
			cols := tc.project
			if cols == nil {
				for _, c := range sch.Columns {
					cols = append(cols, c.Name)
				}
			}
			var want []schema.Tuple
			for _, tp := range table {
				if !tc.keep(tp) {
					continue
				}
				var row schema.Tuple
				for _, c := range cols {
					row.Values = append(row.Values, tp.Values[sch.ColumnIndex(c)])
				}
				want = append(want, row)
			}
			rs := res.Result
			if len(rs.Columns) != len(cols) {
				t.Fatalf("columns %v, want %v", rs.Columns, cols)
			}
			for k := range cols {
				if rs.Columns[k] != cols[k] {
					t.Fatalf("columns %v, want %v", rs.Columns, cols)
				}
			}
			if len(rs.Tuples) != len(want) || len(rs.Keys) != len(want) || len(want) == 0 {
				t.Fatalf("%d rows (%d keys), the oracle keeps %d", len(rs.Tuples), len(rs.Keys), len(want))
			}
			for j := range want {
				if rs.Tuples[j].String() != want[j].String() {
					t.Fatalf("row %d is %v, the oracle's %v", j, rs.Tuples[j], want[j])
				}
			}
			if res.ShardsQueried != tc.shards {
				t.Fatalf("the range spans %d shards, want %d", res.ShardsQueried, tc.shards)
			}
		})
	}
}
