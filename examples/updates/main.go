// Updates: insert and delete transactions at the central server with the
// paper's §3.4 machinery — write-ahead logging, incremental digest
// maintenance for inserts, digest recomputation for deletes, and
// key-version rotation for delayed propagation to edges. After each batch
// the edge refreshes its replica and clients keep getting verifiable
// answers.
//
//	go run ./examples/updates
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"

	"edgeauth"

	"edgeauth/internal/central"
	"edgeauth/internal/workload"
)

func main() {
	ctx := context.Background()
	walDir, err := os.MkdirTemp("", "edgeauth-wal-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(walDir)

	srv, err := edgeauth.NewCentral(central.Options{WALDir: walDir})
	if err != nil {
		log.Fatal(err)
	}
	srv.SetKeyValidity(1, 0, 0) // key version 1, unbounded validity
	spec := workload.DefaultSpec(1000)
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
	fmt.Printf("central: %d tuples, WAL at %s\n", len(tuples), walDir)

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

	count := func(label string) {
		res, err := cl.Query(ctx, "items", []edgeauth.Predicate{
			{Column: "id", Op: edgeauth.OpGE, Value: edgeauth.Int64(0)},
		}, []string{"id"})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d verified tuples at the edge\n", label, len(res.Result.Tuples))
	}
	count("initial")

	// Insert a batch through the client → central server. Each insert
	// multiplies the new tuple digest into the node digests on its path
	// (formula of §3.4) and is WAL-logged first.
	for i := 0; i < 25; i++ {
		vals := make([]edgeauth.Datum, len(sch.Columns))
		vals[0] = edgeauth.Int64(int64(10_000 + i))
		for c := 1; c < len(sch.Columns); c++ {
			vals[c] = edgeauth.Str(fmt.Sprintf("new-attribute-%02d-%02d", c, i))
		}
		if err := cl.Insert(ctx, "items", edgeauth.Tuple{Values: vals}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("inserted 25 tuples at central (WAL-logged, digests patched incrementally)")
	count("before refresh (edge still stale)")

	if err := eg.Pull(ctx, "items"); err != nil {
		log.Fatal(err)
	}
	cl.InvalidateSchema("items")
	count("after refresh")

	// Range delete: removes tuples and recomputes the digests on their
	// paths up to the root, under the shard's writer lock.
	lo, hi := edgeauth.Int64(100), edgeauth.Int64(299)
	n, err := cl.DeleteRange(ctx, "items", &lo, &hi)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deleted %d tuples at central (paths recomputed)\n", n)
	if err := eg.Pull(ctx, "items"); err != nil {
		log.Fatal(err)
	}
	count("after delete + refresh")

	// Rotate the signing key version for the next propagation epoch: old
	// VOs stamped with version 1 remain valid only within its window.
	srv.SetKeyValidity(2, 0, 0)
	fmt.Println("central rotated to key version 2 for the next propagation epoch")
	fmt.Println("done: every read along the way was client-verified")
}
