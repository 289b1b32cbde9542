// Command benchmark is the repo's wire-level end-to-end benchmark: it
// stands a central server and an edge up on loopback TCP inside this
// process, drives them only through the client library and
// edge.RefreshAll, checks every answer, and prints what a client sees
// (verified reads per second and their median latency, VO bytes, set-up
// time) and, in a separate traced pass, where that time goes layer by
// layer. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "all", "workload to run: read.point, read.range, write.batch, mixed.rw, or all")
		seed     = flag.Int64("seed", 1, "the only source of randomness: the same seed gives the same operations")
		seconds  = flag.Float64("seconds", 20, "length of the measured part of each workload")
		trace    = flag.Int("trace", -1, "0 = timed pass only (end-to-end metrics), 1 = traced pass only (per-layer metrics), -1 = both")
		out      = flag.String("out", "", "write the full result as JSON to this file")
		outDir   = flag.String("outdir", "out", "directory for trace-<workload>.jsonl and the WAL scratch directory")
		smoke    = flag.Bool("smoke", false, "tiny sizes (1,024 rows, 300 ms per workload): does the harness still work")
		cmp      = flag.Bool("compare", false, "compare two result files given as arguments; exit 1 if any metric is outside its bound")
	)
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		a, err := readReport(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		b, err := readReport(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if !compare(os.Stdout, a, b) {
			return 1
		}
		return 0
	}

	rn := &runner{sz: fullSizes, seed: *seed, seconds: *seconds, outDir: *outDir}
	if *smoke {
		rn.sz, rn.seconds = smokeSizes, 0.3
	}
	specs := workloads
	if *workload != "all" {
		spec, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
			return 2
		}
		specs = []workloadSpec{spec}
	}
	if *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "-trace must be 0, 1 or -1")
		return 2
	}
	timed, traced := *trace != 1, *trace != 0

	rep := newReport(rn)
	fmt.Printf("deployment: %s\nflush policy: %s\nseed %d, %g s measured per workload, %d load-generating goroutines, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		rep.Deployment, rep.FlushPolicy, rep.Seed, rep.Seconds, rep.Clients, rep.Nproc, rep.Gomaxprocs, rep.GoVersion, rep.Commit)
	code := 0
	last := ""
	for _, spec := range specs {
		res := rn.run(spec, timed, traced)
		rep.Workloads = append(rep.Workloads, res)
		res.print(os.Stdout)
		last = res.contractLine(timed, traced)
		if !res.correct() {
			code = 1
		}
		if res.Hung {
			break // its goroutines still hold the ports and the WAL: stop here
		}
	}
	// The scratch directory holds nothing once every deployment is closed.
	_ = os.Remove(filepath.Join(rn.outDir, "tmp"))
	if *out != "" {
		if err := rep.write(*out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	fmt.Println(last)
	return code
}
