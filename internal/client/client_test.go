package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"

	"edgeauth/internal/central"
	"edgeauth/internal/edge"
	"edgeauth/internal/query"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/vo"
	"edgeauth/internal/workload"
)

var (
	keyOnce sync.Once
	testKey *sig.PrivateKey
)

func centralKey(t testing.TB) *sig.PrivateKey {
	t.Helper()
	keyOnce.Do(func() { testKey = sig.MustGenerate(sig.SchemeRSAMerkle, 512) })
	return testKey
}

// deployment is a full Figure-2 system on loopback TCP.
type deployment struct {
	central *central.Server
	edge    *edge.Server
	client  *Client
}

func deploy(t *testing.T, rows int) *deployment {
	t.Helper()
	srv, err := central.NewServerWithKey(central.Options{PageSize: 1024}, centralKey(t))
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.DefaultSpec(rows)
	sch, err := spec.Schema()
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := spec.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddTable(sch, tuples); err != nil {
		t.Fatal(err)
	}

	centralLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(centralLn)

	eg := edge.New(centralLn.Addr().String())
	if err := eg.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	edgeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go eg.Serve(edgeLn)

	cl, err := Dial(context.Background(), Config{
		EdgeAddr:    edgeLn.Addr().String(),
		CentralAddr: centralLn.Addr().String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.FetchTrustedKey(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		eg.Close()
		srv.Close()
	})
	return &deployment{central: srv, edge: eg, client: cl}
}

func i64(v int) *schema.Datum {
	d := schema.Int64(int64(v))
	return &d
}

func TestEndToEndQueryVerifies(t *testing.T) {
	ctx := context.Background()
	d := deploy(t, 300)
	res, err := d.client.Query(ctx, "items", []query.Predicate{
		{Column: "id", Op: query.OpGE, Value: schema.Int64(50)},
		{Column: "id", Op: query.OpLE, Value: schema.Int64(99)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Result.Tuples) != 50 {
		t.Fatalf("got %d tuples, want 50", len(res.Result.Tuples))
	}
	if res.VOBytes <= 0 || res.ResultBytes <= 0 {
		t.Fatal("byte accounting missing")
	}
}

func TestEndToEndProjectionAndFilter(t *testing.T) {
	ctx := context.Background()
	d := deploy(t, 200)
	res, err := d.client.Query(ctx, "items", []query.Predicate{
		{Column: "cat", Op: query.OpEQ, Value: schema.Str(workload.CategoryName(3))},
	}, []string{"id", "cat"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Result.Columns) != 2 {
		t.Fatalf("columns = %v", res.Result.Columns)
	}
	for _, tp := range res.Result.Tuples {
		if tp.Values[1].S != workload.CategoryName(3) {
			t.Fatalf("filter leaked tuple %v", tp)
		}
	}
	if res.VO.NumDP() == 0 {
		t.Fatal("projection produced no DP digests")
	}
}

func TestEndToEndEmptyResult(t *testing.T) {
	ctx := context.Background()
	d := deploy(t, 100)
	res, err := d.client.Query(ctx, "items", []query.Predicate{
		{Column: "id", Op: query.OpGE, Value: schema.Int64(5000)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Result.Tuples) != 0 {
		t.Fatal("expected empty result")
	}
}

func TestEndToEndTamperDetected(t *testing.T) {
	ctx := context.Background()
	d := deploy(t, 200)

	cases := map[string]edge.TamperFn{
		"inflate value": func(rs *vo.ResultSet, w *vo.VO) error {
			if len(rs.Tuples) > 0 {
				rs.Tuples[0].Values[len(rs.Tuples[0].Values)-1] = schema.Str("hacked!")
			}
			return nil
		},
		"drop tuple": func(rs *vo.ResultSet, w *vo.VO) error {
			if len(rs.Tuples) > 1 {
				rs.Tuples = rs.Tuples[:len(rs.Tuples)-1]
				rs.Keys = rs.Keys[:len(rs.Keys)-1]
			}
			return nil
		},
		"inject tuple": func(rs *vo.ResultSet, w *vo.VO) error {
			if len(rs.Tuples) > 0 {
				fake := rs.Tuples[0].Clone()
				fake.Values[0] = schema.Int64(99999)
				rs.Tuples = append(rs.Tuples, fake)
				rs.Keys = append(rs.Keys, schema.Int64(99999))
			}
			return nil
		},
		"swap digest": func(rs *vo.ResultSet, w *vo.VO) error {
			if w.NumDS() > 0 {
				w.DSDigest(0)[0] ^= 0xFF
			}
			return nil
		},
	}
	preds := []query.Predicate{
		{Column: "id", Op: query.OpGE, Value: schema.Int64(10)},
		{Column: "id", Op: query.OpLE, Value: schema.Int64(60)},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			d.edge.SetTamper(fn)
			defer d.edge.SetTamper(nil)
			_, err := d.client.Query(ctx, "items", preds, nil)
			if !errors.Is(err, ErrTampered) {
				t.Fatalf("tampering %q: err = %v, want ErrTampered", name, err)
			}
		})
	}
	// Clean queries pass again once the edge behaves.
	if _, err := d.client.Query(ctx, "items", preds, nil); err != nil {
		t.Fatalf("clean query after tamper: %v", err)
	}
}

func TestEndToEndUpdatePropagation(t *testing.T) {
	ctx := context.Background()
	d := deploy(t, 100)
	// Insert through the client (goes to central).
	newTuple := mkWorkloadTuple(t, d, 5000)
	if err := d.client.Insert(ctx, "items", newTuple); err != nil {
		t.Fatal(err)
	}
	// Edge is stale: the new tuple is not there yet, but results verify.
	res, err := d.client.Query(ctx, "items", []query.Predicate{
		{Column: "id", Op: query.OpEQ, Value: schema.Int64(5000)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Result.Tuples) != 0 {
		t.Fatal("stale edge returned the new tuple without a refresh")
	}
	// Refresh (the paper's periodic propagation) and re-query.
	if err := d.edge.Pull(ctx, "items"); err != nil {
		t.Fatal(err)
	}
	res, err = d.client.Query(ctx, "items", []query.Predicate{
		{Column: "id", Op: query.OpEQ, Value: schema.Int64(5000)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Result.Tuples) != 1 {
		t.Fatalf("refreshed edge returned %d tuples", len(res.Result.Tuples))
	}
	// Delete through the client, refresh, verify again.
	n, err := d.client.DeleteRange(ctx, "items", i64(0), i64(9))
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("deleted %d, want 10", n)
	}
	if err := d.edge.Pull(ctx, "items"); err != nil {
		t.Fatal(err)
	}
	res, err = d.client.Query(ctx, "items", []query.Predicate{
		{Column: "id", Op: query.OpLE, Value: schema.Int64(20)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Result.Tuples) != 11 {
		t.Fatalf("after delete, got %d tuples, want 11", len(res.Result.Tuples))
	}
}

// mkWorkloadTuple builds a schema-conformant tuple with the given id.
func mkWorkloadTuple(t *testing.T, d *deployment, id int) schema.Tuple {
	t.Helper()
	sch, err := d.client.Schema(context.Background(), "items")
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]schema.Datum, len(sch.Columns))
	vals[0] = schema.Int64(int64(id))
	for i := 1; i < len(sch.Columns); i++ {
		vals[i] = schema.Str(fmt.Sprintf("v%02d-%020d", i, id))
	}
	return schema.Tuple{Values: vals}
}

func TestEndToEndJoinView(t *testing.T) {
	ctx := context.Background()
	d := deploy(t, 50)
	// Materialize a self-referential demo view at the central server:
	// items joined with itself on cat (cheap but structurally a join).
	j := workload.DefaultJoinSpec(20, 100)
	usch, err := j.Users.Schema()
	if err != nil {
		t.Fatal(err)
	}
	utuples, err := j.Users.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.central.AddTable(usch, utuples); err != nil {
		t.Fatal(err)
	}
	if err := d.central.AddTable(j.OrdersSchema(), j.OrderTuples()); err != nil {
		t.Fatal(err)
	}
	if err := d.central.MaterializeJoin("user_orders", "orders", "users", "user_id", "id"); err != nil {
		t.Fatal(err)
	}
	if err := d.edge.Pull(ctx, "user_orders"); err != nil {
		t.Fatal(err)
	}
	// Query the authenticated join view through the normal path.
	res, err := d.client.Query(ctx, "user_orders", []query.Predicate{
		{Column: "user_id", Op: query.OpEQ, Value: schema.Int64(3)},
	}, []string{"rowid", "oid", "user_id"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range res.Result.Tuples {
		if tp.Values[2].I != 3 {
			t.Fatalf("join view filter leaked %v", tp)
		}
	}
}

func TestEndToEndErrors(t *testing.T) {
	ctx := context.Background()
	d := deploy(t, 20)
	if _, err := d.client.Query(ctx, "ghost", nil, nil); err == nil {
		t.Fatal("query of unknown table succeeded")
	}
	if err := d.client.Insert(ctx, "ghost", schema.NewTuple(schema.Int64(1))); err == nil {
		t.Fatal("insert into unknown table succeeded")
	}
	if _, err := d.client.DeleteRange(ctx, "ghost", nil, nil); err == nil {
		t.Fatal("delete from unknown table succeeded")
	}
	tables, err := d.client.EdgeTables(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0] != "items" {
		t.Fatalf("edge tables = %v", tables)
	}
}
