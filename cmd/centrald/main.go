// Command centrald runs the trusted central DBMS: it generates a signing
// key, builds a synthetic table (and optionally a materialized join view)
// with VB-trees, and serves snapshots, updates and the public key over
// TCP.
//
// Usage:
//
//	centrald -listen :7001 -rows 10000 [-join] [-waldir /tmp/wal]
//	         [-scheme ed25519|rsa-merkle] [-keybits 1024]
//	         [-maxbatch 128] [-shards 4] [-autoreshard 10s]
//	         [-debug-addr 127.0.0.1:7101]
//
// -scheme selects the signature scheme of the one signature over each
// shard root: "ed25519" (the default) or "rsa-merkle" (RSA with message
// recovery). Either way the VB-trees commit by ordered hashes. -keybits
// sizes the RSA modulus and is ignored for ed25519.
//
// -maxbatch bounds the group-commit front door: concurrent insert
// requests for a table — one tuple or many each — are coalesced and
// committed as one batch (one WAL fsync, one version bump, one VB-tree
// rehash pass), up to maxbatch tuples per round. A round's leader
// commits what has queued at once, without waiting for stragglers. A
// request larger than maxbatch commits in a round of its own. Negative
// values of -maxbatch and -deltaretention are refused.
//
// -shards range-partitions every table into that many independently
// signed VB-tree shards bound by a central-signed shard map, with
// boundaries that balance the build rows per shard; insert batches then
// commit to the shards in parallel.
//
// -autoreshard arms the online hot-shard detector: every interval an
// EWMA over per-shard ingest load picks a shard to split (above 0.6 of
// the table's total) or an adjacent pair to merge (below 0.05
// together), up to 64 shards, committing the transition as a new
// signed map epoch under live traffic. Manually commanded transitions
// via the reshard admin frame are always available, detector or not.
//
// -debug-addr serves expvar (including the server's live counters under
// the "central" key) at http://ADDR/debug/vars, and net/http/pprof's
// profiles at http://ADDR/debug/pprof/ (for example
// `go tool pprof http://ADDR/debug/pprof/profile?seconds=10`).
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // the profiler, on DefaultServeMux beside expvar
	"os"
	"os/signal"
	"syscall"
	"time"

	"edgeauth/internal/central"
	"edgeauth/internal/sig"
	"edgeauth/internal/workload"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:7001", "address to serve on")
		rows    = flag.Int("rows", 10_000, "synthetic table size")
		scheme  = flag.String("scheme", "ed25519", "signature scheme: ed25519 or rsa-merkle")
		keyBits = flag.Int("keybits", 1024, "RSA signing key size (ignored for ed25519)")
		pageSz  = flag.Int("pagesize", 4096, "VB-tree node size")
		walDir  = flag.String("waldir", "", "directory for write-ahead logs (empty = disabled)")
		join    = flag.Bool("join", false, "also materialize the users/orders join view")
		deltas  = flag.Int("deltaretention", 0, "updates retained per table for edge delta refresh (0 = default; negative values are refused)")
		idle    = flag.Duration("idletimeout", 0, "drop connections idle past this (0 = default, <0 = never)")
		// Group-commit front door: concurrent insert requests for a table
		// are coalesced and committed together — one WAL fsync, one
		// version bump, one tree rehash pass per round.
		maxBatch = flag.Int("maxbatch", 0, "max tuples group-committed per round (0 = default 128; negative values are refused)")
		// Range partitioning: independently-signed VB-tree shards bound
		// by a central-signed shard map.
		shards = flag.Int("shards", 1, "range-partition each table into this many VB-tree shards")
		// Online resharding: the detector splits hot shards and merges
		// cold pairs under live traffic. Admin-commanded transitions via
		// the reshard wire frame work regardless of this flag.
		autoReshard = flag.Duration("autoreshard", 0, "hot-shard detector interval (0 = detector off)")
		debugAddr   = flag.String("debug-addr", "", "serve expvar counters at http://ADDR/debug/vars and the profiler at http://ADDR/debug/pprof/ (empty = disabled)")
	)
	flag.Parse()

	log.SetPrefix("centrald: ")
	sigScheme, err := sig.ParseScheme(*scheme)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	srv, err := central.NewServer(central.Options{
		Scheme:              sigScheme,
		KeyBits:             *keyBits,
		PageSize:            *pageSz,
		WALDir:              *walDir,
		DeltaRetention:      *deltas,
		IdleTimeout:         *idle,
		MaxBatch:            *maxBatch,
		Shards:              *shards,
		AutoReshardInterval: *autoReshard,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("generated %s signing key in %v", sigScheme, time.Since(start).Round(time.Millisecond))

	spec := workload.DefaultSpec(*rows)
	sch, err := spec.Schema()
	if err != nil {
		log.Fatal(err)
	}
	tuples, err := spec.Tuples()
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	if err := srv.AddTable(sch, tuples); err != nil {
		log.Fatal(err)
	}
	log.Printf("built VB-tree over %q (%d tuples) in %v", sch.Table, *rows, time.Since(start).Round(time.Millisecond))

	if *join {
		j := workload.DefaultJoinSpec(*rows/10+1, *rows)
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
		start = time.Now()
		if err := srv.MaterializeJoin("user_orders", "orders", "users", "user_id", "id"); err != nil {
			log.Fatal(err)
		}
		log.Printf("materialized join view %q in %v", "user_orders", time.Since(start).Round(time.Millisecond))
	}

	if *debugAddr != "" {
		expvar.Publish("central", expvar.Func(func() any { return srv.Stats() }))
		go func() {
			// DefaultServeMux carries expvar's /debug/vars and the
			// profiler's /debug/pprof/ handlers.
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("debug server: %v", err)
			}
		}()
		log.Printf("expvar counters at http://%s/debug/vars, profiler at http://%s/debug/pprof/", *debugAddr, *debugAddr)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	if *shards > 1 {
		fmt.Printf("centrald serving tables %v (%d shards each) on %s\n", srv.Tables(), *shards, ln.Addr())
	} else {
		fmt.Printf("centrald serving tables %v on %s\n", srv.Tables(), ln.Addr())
	}

	// Graceful shutdown: drain connections and close every shard's WAL —
	// an fsync failure on close is the last chance to notice lost
	// durability, so the error is reported, not dropped.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		log.Printf("received %v, shutting down", sig)
		srv.Close() // closes listeners; Serve returns, and main reports the error
	}()

	srv.Serve(ln)
	// Close is idempotent: this either waits out the signal handler's
	// shutdown or performs it when Serve stopped on a listener failure.
	if err := srv.Close(); err != nil {
		log.Printf("shutdown: %v", err)
	}
	log.Printf("stopped")
}
