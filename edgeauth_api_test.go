package edgeauth_test

import (
	"context"
	"errors"
	"net"
	"testing"

	"edgeauth"

	"edgeauth/internal/central"
	"edgeauth/internal/rpc"
	"edgeauth/internal/tamper"
	"edgeauth/internal/vo"
	"edgeauth/internal/workload"
)

// TestPublicAPIRoundTrip drives the facade exactly as a downstream user
// would: central → edge → client, verified query, tamper detection.
func TestPublicAPIRoundTrip(t *testing.T) {
	srv, err := edgeauth.NewCentral(central.Options{KeyBits: 512, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.DefaultSpec(300)
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
	defer srv.Close()

	ctx := context.Background()
	eg := edgeauth.NewEdge(centralLn.Addr().String())
	if err := eg.PullAll(ctx); err != nil {
		t.Fatal(err)
	}
	edgeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go eg.Serve(edgeLn)
	defer eg.Close()

	cl, err := edgeauth.Dial(ctx, edgeauth.Config{
		EdgeAddr:    edgeLn.Addr().String(),
		CentralAddr: centralLn.Addr().String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.FetchTrustedKey(ctx); err != nil {
		t.Fatal(err)
	}

	res, err := cl.Query(ctx, "items", []edgeauth.Predicate{
		{Column: "id", Op: edgeauth.OpGE, Value: edgeauth.Int64(10)},
		{Column: "id", Op: edgeauth.OpLE, Value: edgeauth.Int64(29)},
	}, []string{"id", "cat"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Result.Tuples) != 20 {
		t.Fatalf("got %d tuples", len(res.Result.Tuples))
	}

	// Updates through the facade.
	vals := make([]edgeauth.Datum, len(sch.Columns))
	vals[0] = edgeauth.Int64(9999)
	for i := 1; i < len(vals); i++ {
		vals[i] = edgeauth.Str("facade-value-aaaaaaa")
	}
	if err := cl.Insert(ctx, "items", edgeauth.Tuple{Values: vals}); err != nil {
		t.Fatal(err)
	}
	lo := edgeauth.Int64(0)
	hi := edgeauth.Int64(4)
	if n, err := cl.DeleteRange(ctx, "items", &lo, &hi); err != nil || n != 5 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}

	// Tampering — a proxy in front of the edge rewriting its answers —
	// surfaces as ErrTampered through the facade alias.
	hostile := rpc.NewServer(tamper.Wrap(eg.Handler(), tamper.Attack{Name: "negate-key", Apply: func(rs *vo.ResultSet, w *vo.VO) error {
		if len(rs.Tuples) > 0 {
			rs.Tuples[0].Values[0] = edgeauth.Int64(-1)
		}
		return nil
	}}), rpc.ServeOptions{})
	hostileLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hostile.Serve(hostileLn)
	defer hostile.Close()
	victim, err := edgeauth.Dial(ctx, edgeauth.Config{
		EdgeAddr:    hostileLn.Addr().String(),
		CentralAddr: centralLn.Addr().String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	if err := victim.FetchTrustedKey(ctx); err != nil {
		t.Fatal(err)
	}
	_, err = victim.Query(ctx, "items", []edgeauth.Predicate{
		{Column: "id", Op: edgeauth.OpLE, Value: edgeauth.Int64(50)},
	}, nil)
	if !errors.Is(err, edgeauth.ErrTampered) {
		t.Fatalf("tampering through facade: %v", err)
	}
}

// TestFacadeHelpers covers the small constructors.
func TestFacadeHelpers(t *testing.T) {
	if _, err := edgeauth.GenerateKey(edgeauth.SchemeRSAMerkle, 512); err != nil {
		t.Fatal(err)
	}
	d := edgeauth.Float64(2.5)
	if d.Type != edgeauth.TypeFloat64 {
		t.Fatal("facade datum constructor broken")
	}
	if edgeauth.Bytes([]byte{1}).Type != edgeauth.TypeBytes {
		t.Fatal("bytes constructor broken")
	}
	if edgeauth.OpNE.String() != "!=" || edgeauth.OpLT.String() != "<" ||
		edgeauth.OpGT.String() != ">" {
		t.Fatal("operator aliases broken")
	}
}
