// Join view: authenticating join results through materialized views
// (paper §3.3, Join). The central server materializes users ⋈ orders,
// builds a VB-tree over the view, and edge servers answer join queries
// exactly like single-table ones — selection, projection and verification
// all included. A tampered join row is detected the same way.
//
//	go run ./examples/joinview
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"

	"edgeauth"

	"edgeauth/internal/central"
	"edgeauth/internal/vo"
	"edgeauth/internal/workload"
)

func main() {
	ctx := context.Background()
	srv, err := edgeauth.NewCentral(central.Options{})
	if err != nil {
		log.Fatal(err)
	}
	// Base tables: users and orders (orders.user_id → users.id).
	j := workload.DefaultJoinSpec(100, 1000)
	usch, err := j.Users.Schema()
	if err != nil {
		log.Fatal(err)
	}
	utuples, err := j.Users.Tuples()
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.AddTable(usch, utuples); err != nil {
		log.Fatal(err)
	}
	if err := srv.AddTable(j.OrdersSchema(), j.OrderTuples()); err != nil {
		log.Fatal(err)
	}
	// Materialize the join and build its VB-tree.
	if err := srv.MaterializeJoin("user_orders", "orders", "users", "user_id", "id"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("central: tables %v (user_orders is the authenticated join view)\n", srv.Tables())

	centralLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(centralLn)

	eg := edgeauth.NewEdge(centralLn.Addr().String())
	if err := eg.PullAll(ctx); err != nil {
		log.Fatal(err)
	}
	edgeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go eg.Serve(edgeLn)

	cl, err := edgeauth.Dial(ctx, edgeauth.Config{
		EdgeAddr:    edgeLn.Addr().String(),
		CentralAddr: centralLn.Addr().String(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	if err := cl.FetchTrustedKey(ctx); err != nil {
		log.Fatal(err)
	}

	// "All orders of user 42, with the user's attributes" — a join query,
	// answered from the view with selection + projection at the edge.
	res, err := cl.Query(ctx, "user_orders", []edgeauth.Predicate{
		{Column: "user_id", Op: edgeauth.OpEQ, Value: edgeauth.Int64(42)},
	}, []string{"oid", "total", "users_id", "users_cat"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\njoin query (user_id = 42): %d rows VERIFIED\n", len(res.Result.Tuples))
	for i, t := range res.Result.Tuples {
		if i == 5 {
			fmt.Println("  …")
			break
		}
		fmt.Printf("  %v\n", t)
	}
	fmt.Printf("VO: %d digests, %d bytes (gaps from the non-key selection are covered by D_S)\n",
		res.VO.NumDigests(), res.VOBytes)

	// A hacked edge inflating an order total is caught on the view too.
	eg.SetTamper(func(rs *vo.ResultSet, w *vo.VO) error {
		if len(rs.Tuples) > 0 {
			rs.Tuples[0].Values[1] = edgeauth.Float64(1e9)
		}
		return nil
	})
	_, err = cl.Query(ctx, "user_orders", []edgeauth.Predicate{
		{Column: "user_id", Op: edgeauth.OpEQ, Value: edgeauth.Int64(7)},
	}, []string{"oid", "total", "users_id", "users_cat"})
	if !errors.Is(err, edgeauth.ErrTampered) {
		log.Fatalf("tampered join row went undetected: %v", err)
	}
	fmt.Printf("\ntampered join result DETECTED: %v\n", err)
}
