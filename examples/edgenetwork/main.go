// Edge network: one central server, three edge servers (one of them
// compromised), and a client that fails over between edges — the CDN-like
// deployment the paper motivates. The client detects the tampered edge by
// verification failure and retries the same query at an honest edge, so
// applications get authenticated answers despite compromised
// infrastructure.
//
//	go run ./examples/edgenetwork
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"

	"edgeauth"

	"edgeauth/internal/central"
	"edgeauth/internal/tamper"
	"edgeauth/internal/vo"
	"edgeauth/internal/workload"
)

func main() {
	ctx := context.Background()
	// Central server.
	srv, err := edgeauth.NewCentral(central.Options{})
	if err != nil {
		log.Fatal(err)
	}
	spec := workload.DefaultSpec(3000)
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
	fmt.Printf("central: serving %v at %s\n", srv.Tables(), centralLn.Addr())

	// Three edges near three "user clusters"; edge-1 is hacked.
	edgeAddrs := make([]string, 3)
	for i := 0; i < 3; i++ {
		eg := edgeauth.NewEdge(centralLn.Addr().String())
		if err := eg.PullAll(ctx); err != nil {
			log.Fatal(err)
		}
		if i == 1 {
			attack := tamper.MutateValue()
			eg.SetTamper(func(rs *vo.ResultSet, w *vo.VO) error {
				_ = attack.Apply(rs, w) // inapplicable on empty results; fine
				return nil
			})
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go eg.Serve(ln)
		edgeAddrs[i] = ln.Addr().String()
		status := "honest"
		if i == 1 {
			status = "COMPROMISED (mutate-value)"
		}
		fmt.Printf("edge-%d: %s — %s\n", i, ln.Addr(), status)
	}

	// The client tries edges in order and fails over on verification
	// failure.
	preds := []edgeauth.Predicate{
		{Column: "id", Op: edgeauth.OpGE, Value: edgeauth.Int64(500)},
		{Column: "id", Op: edgeauth.OpLE, Value: edgeauth.Int64(549)},
	}
	fmt.Println("\nquery: SELECT * FROM items WHERE id BETWEEN 500 AND 549")
	for _, order := range [][]int{{1, 0, 2}, {0, 1, 2}} {
		fmt.Printf("\nclient prefers edges in order %v:\n", order)
		var res *edgeauth.VerifiedResult
		for _, i := range order {
			cl, err := edgeauth.Dial(ctx, edgeauth.Config{
				EdgeAddr:    edgeAddrs[i],
				CentralAddr: centralLn.Addr().String(),
			})
			if err != nil {
				log.Fatal(err)
			}
			if err := cl.FetchTrustedKey(ctx); err != nil {
				log.Fatal(err)
			}
			r, err := cl.Query(ctx, "items", preds, nil)
			cl.Close()
			if errors.Is(err, edgeauth.ErrTampered) {
				fmt.Printf("  edge-%d: VERIFICATION FAILED — compromised, failing over\n", i)
				continue
			}
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  edge-%d: %d tuples verified (VO %d bytes) — accepted\n",
				i, len(r.Result.Tuples), r.VOBytes)
			res = r
			break
		}
		if res == nil {
			log.Fatal("no edge produced a verifiable answer")
		}
	}
	fmt.Println("\nauthenticated answers obtained despite a compromised edge in the fleet")
}
