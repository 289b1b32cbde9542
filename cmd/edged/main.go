// Command edged runs an (untrusted) edge server: it replicates every
// table from the central server and answers client queries with
// verification objects. A refresh interval implements the paper's
// periodic update propagation — each tick pulls signed deltas (only the
// pages changed since the replica's version) and falls back to a full
// snapshot when the central server's retained changelog cannot cover the
// gap. The -tamper flag simulates a compromised edge so clients can be
// shown detecting it: the listener is then served by a proxy that runs
// the named attack on what the honest replica answers (tamper.Wrap).
//
// Usage:
//
//	edged -central 127.0.0.1:7001 -listen :7002 [-refresh 30s] [-tamper mutate-value]
//	      [-upstream host:port,...] [-serve-peers] [-debug-addr 127.0.0.1:7102]
//
// -upstream and -serve-peers wire the edge into the peer distribution
// tier: -upstream names peer edges (tried in order) to pull bulk refresh
// payloads from before falling back to the central, and -serve-peers
// lets this edge answer other edges' replication requests from its own
// replicas. Nothing about -serve-peers is advertised when edges connect:
// an edge without it refuses replication requests with a typed
// unsupported error, and a downstream edge backs it off and pulls from
// the next source. Trust anchors (the signed shard map and the central
// public key) always come from the central regardless of topology.
//
// Every binary of a deployment must speak the same wire.ProtocolVersion:
// the Hello each connection opens with carries it, and a centrald,
// edged or vbquery of another version is refused at dial.
//
// -tamper also accepts the shard-map attacks (drop-shard-from-map,
// rewire-shard-digests, replay-pre-split-map, hide-split,
// cross-epoch-splice), which corrupt the shard map served for
// range-partitioned tables instead of individual query responses —
// the last three simulate an edge trying to conceal or rewind an
// online shard split/merge — and
// the malicious-relay attacks (bit-flip-delta, replay-stale-snapshot,
// wrong-shard-relay), which corrupt the replication payloads a
// -serve-peers edge relays to downstream edges.
//
// -debug-addr serves expvar (including the edge's live counters under
// the "edge" key, and per-upstream pull counters under "edge_peers")
// at http://ADDR/debug/vars, and net/http/pprof's profiles at
// http://ADDR/debug/pprof/.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // the profiler, on DefaultServeMux beside expvar
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"edgeauth/internal/edge"
	"edgeauth/internal/rpc"
	"edgeauth/internal/tamper"
)

func main() {
	var (
		centralAddr = flag.String("central", "127.0.0.1:7001", "central server address")
		listen      = flag.String("listen", "127.0.0.1:7002", "address to serve clients on")
		refresh     = flag.Duration("refresh", 0, "update propagation interval (0 = never)")
		idle        = flag.Duration("idletimeout", 0, "drop client connections idle past this (0 = default, <0 = never)")
		tamperName  = flag.String("tamper", "", "simulate a compromised edge with the named attack (see internal/tamper)")
		upstream    = flag.String("upstream", "", "comma-separated peer edge addresses to pull refresh payloads from (tried in order before the central)")
		servePeers  = flag.Bool("serve-peers", false, "answer other edges' replication requests from this edge's replicas")
		debugAddr   = flag.String("debug-addr", "", "serve expvar counters at http://ADDR/debug/vars and the profiler at http://ADDR/debug/pprof/ (empty = disabled)")
	)
	flag.Parse()

	log.SetPrefix("edged: ")
	ctx := context.Background()
	opts := edge.Options{IdleTimeout: *idle, ServePeers: *servePeers}
	if *upstream != "" {
		for _, a := range strings.Split(*upstream, ",") {
			if a = strings.TrimSpace(a); a != "" {
				opts.Upstreams = append(opts.Upstreams, a)
			}
		}
	}
	srv := edge.NewWithOptions(*centralAddr, opts)
	if len(opts.Upstreams) > 0 {
		log.Printf("pulling refresh payloads via upstream peers %v (central %s is the fallback)", opts.Upstreams, *centralAddr)
	}
	if *servePeers {
		log.Printf("serving replication requests to downstream peers")
	}
	start := time.Now()
	if err := srv.PullAll(ctx); err != nil {
		log.Fatal(err)
	}
	log.Printf("replicated tables %v in %v", srv.Tables(), time.Since(start).Round(time.Millisecond))

	// A compromised edge is a proxy in front of the honest replica's
	// handler; an honest one serves the listener itself.
	serve, stopServing := srv.Serve, func() {}
	if *tamperName != "" {
		proxy := rpc.NewServer(compromise(srv.Handler(), *tamperName), rpc.ServeOptions{IdleTimeout: *idle})
		serve, stopServing = proxy.Serve, proxy.Close
	}

	if *debugAddr != "" {
		expvar.Publish("edge", expvar.Func(func() any { return srv.Stats() }))
		if len(opts.Upstreams) > 0 {
			expvar.Publish("edge_peers", expvar.Func(func() any { return srv.PeerStats() }))
		}
		if len(opts.Upstreams) > 0 || *servePeers {
			expvar.Publish("edge_relay", expvar.Func(func() any { return srv.RelayStats() }))
		}
		go func() {
			// DefaultServeMux carries expvar's /debug/vars and the
			// profiler's /debug/pprof/ handlers.
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("debug server: %v", err)
			}
		}()
		log.Printf("expvar counters at http://%s/debug/vars, profiler at http://%s/debug/pprof/", *debugAddr, *debugAddr)
	}

	// The refresh loop owns its ticker and stops when the server shuts
	// down (time.Tick would leak the ticker and never stop).
	stop := make(chan struct{})
	refreshDone := make(chan struct{})
	if *refresh > 0 {
		go func() {
			defer close(refreshDone)
			ticker := time.NewTicker(*refresh)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					refreshOnce(ctx, srv, *refresh)
				case <-stop:
					return
				}
			}
		}()
	} else {
		close(refreshDone)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		log.Printf("received %v, shutting down", sig)
		close(stop)
		stopServing()
		srv.Close() // closes listeners; Serve returns
	}()

	fmt.Printf("edged serving tables %v on %s\n", srv.Tables(), ln.Addr())
	serve(ln)
	<-refreshDone
	// Close is idempotent: this waits out the signal handler's shutdown
	// (or performs it, when Serve stopped on a listener failure) and
	// surfaces a central connection that failed to close cleanly.
	stopServing()
	if err := srv.Close(); err != nil {
		log.Printf("shutdown: %v", err)
	}
	log.Printf("stopped")
}

// compromise returns the handler of an edge running the named attack on
// what the honest handler h answers. A response the attack does not
// apply to goes out as the honest edge built it.
func compromise(h rpc.Handler, name string) rpc.Handler {
	for _, a := range tamper.All() {
		if a.Name == name {
			log.Printf("COMPROMISED MODE: applying attack %q to every response", name)
			return tamper.Wrap(h, a)
		}
	}
	for _, a := range tamper.MapAttacks() {
		if a.Name == name {
			log.Printf("COMPROMISED MODE: applying map attack %q to every served shard map", name)
			return tamper.WrapMap(h, a)
		}
	}
	for _, a := range tamper.PeerAttacks() {
		if a.Name == name {
			log.Printf("COMPROMISED MODE: applying relay attack %q to every peer-served payload", name)
			return tamper.WrapPeer(h, a)
		}
	}
	log.Fatalf("unknown attack %q (see internal/tamper All, MapAttacks and PeerAttacks)", name)
	return nil
}

// refreshOnce propagates pending updates for every table and logs what
// the delta protocol saved over full snapshots. Each tick is bounded by
// its own deadline so a hung central server cannot wedge the loop.
func refreshOnce(ctx context.Context, srv *edge.Server, interval time.Duration) {
	tctx, cancel := context.WithTimeout(ctx, 2*interval)
	defer cancel()
	stats, err := srv.RefreshAll(tctx)
	if err != nil {
		// Per-table failures are isolated; report them and keep the
		// stats of the tables that did refresh.
		log.Printf("refresh: %v", err)
	}
	var deltas, snapshots, noops, bytes int
	for _, st := range stats {
		bytes += st.Bytes
		switch st.Mode {
		case "delta":
			deltas++
			log.Printf("refresh %q: delta v%d→v%d, %d bytes", st.Table, st.FromVersion, st.ToVersion, st.Bytes)
		case "snapshot":
			snapshots++
			log.Printf("refresh %q: full snapshot to v%d, %d bytes", st.Table, st.ToVersion, st.Bytes)
		default:
			noops++
		}
	}
	log.Printf("refreshed %d tables (%d delta, %d snapshot, %d current) in %d bytes",
		len(stats), deltas, snapshots, noops, bytes)
}
