// Quickstart: the complete authenticated-query pipeline in one process.
//
// It stands up the paper's Figure-2 architecture on loopback TCP — a
// trusted central server with a VB-tree, an untrusted edge server holding
// a replica, and a verifying client — then runs a range query, a
// projection, and finally shows the client detecting a tampered edge.
//
//	go run ./examples/quickstart
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
	// 1. Central server: owns the signing key, builds the VB-tree.
	srv, err := edgeauth.NewCentral(central.Options{})
	if err != nil {
		log.Fatal(err)
	}
	spec := workload.DefaultSpec(2000)
	sch, err := spec.Schema()
	if err != nil {
		log.Fatal(err)
	}
	tuples, err := spec.Tuples()
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.AddTable(sch, tuples); err != nil {
		log.Fatal(err)
	}
	centralLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(centralLn)
	fmt.Printf("central server: table %q, %d tuples, VB-tree signed\n", sch.Table, len(tuples))

	// 2. Edge server: replicates "DB + VB-trees" and answers queries.
	eg := edgeauth.NewEdge(centralLn.Addr().String())
	if err := eg.PullAll(ctx); err != nil {
		log.Fatal(err)
	}
	edgeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go eg.Serve(edgeLn)
	fmt.Printf("edge server: replicated %v\n", eg.Tables())

	// 3. Client: dials the edge, fetches the trusted public key,
	// queries, verifies. Every method is context-aware, and one client
	// can be shared by any number of goroutines — requests pipeline over
	// a single multiplexed connection.
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

	res, err := cl.Query(ctx, "items", []edgeauth.Predicate{
		{Column: "id", Op: edgeauth.OpGE, Value: edgeauth.Int64(100)},
		{Column: "id", Op: edgeauth.OpLE, Value: edgeauth.Int64(109)},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrange query [100,109]: %d tuples VERIFIED (VO: %d digests, %d bytes)\n",
		len(res.Result.Tuples), res.VO.NumDigests(), res.VOBytes)
	for _, t := range res.Result.Tuples[:3] {
		fmt.Printf("  %v\n", t)
	}
	fmt.Println("  …")

	// Projection: filtered attributes travel as digests (D_P).
	res, err = cl.Query(ctx, "items", []edgeauth.Predicate{
		{Column: "cat", Op: edgeauth.OpEQ, Value: edgeauth.Str(workload.CategoryName(5))},
	}, []string{"id", "cat"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprojection+filter (cat=%s): %d tuples VERIFIED, %d filtered-attribute digests in D_P\n",
		workload.CategoryName(5), len(res.Result.Tuples), res.VO.NumDP())

	// 4. Compromise the edge and watch the client catch it.
	eg.SetTamper(func(rs *vo.ResultSet, w *vo.VO) error {
		if len(rs.Tuples) > 0 {
			rs.Tuples[0].Values[1] = edgeauth.Str("forged-category")
		}
		return nil
	})
	_, err = cl.Query(ctx, "items", []edgeauth.Predicate{
		{Column: "id", Op: edgeauth.OpLE, Value: edgeauth.Int64(50)},
	}, nil)
	if errors.Is(err, edgeauth.ErrTampered) {
		fmt.Printf("\ncompromised edge DETECTED: %v\n", err)
	} else {
		log.Fatalf("tampering went undetected: %v", err)
	}
}
