package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// workloadSpec is one traffic mix over the one deployment.
type workloadSpec struct {
	name string
	why  string
	// readers is how many closed-loop reader goroutines run, given C =
	// min(nproc, 4) load-generating goroutines in all.
	readers func(c int) int
	// stream makes reader n's queries.
	stream func(g *generator, n int) readStream
	// runLen, when positive, adds the one writer: every round inserts
	// numShards runs of runLen fresh keys, refreshes the edge, reads its
	// last key back verified, and deletes the runs of deleteLag rounds ago.
	runLen int
	// period, when positive, puts the writer on a fixed schedule (open
	// loop, timed from when each round was due); zero is a closed loop.
	period time.Duration
	// warmReads is the fixed number of unmeasured queries each reader
	// makes before the measured part, so the schema, shard map, key and
	// verifier caches are full. Fixed work, not fixed time: set-up time
	// then shows work a change moves into it.
	warmReads int
	// tracedReadsPerRound interleaves reads with the traced pass's write
	// rounds (mixed.rw); zero with a writer means rounds only.
	tracedReadsPerRound int
}

var workloads = []workloadSpec{
	{
		name:      "read.point",
		why:       "zipfian id = k reads: per-request cost (rpc, codec, pin, map and root-signature checks) dominates and hot keys repeat, so a cache has something to hit; writers idle",
		readers:   func(c int) int { return c },
		stream:    (*generator).pointStream,
		warmReads: 1000,
	},
	{
		name:      "read.range",
		why:       "256-row ranges projecting 3 of 10 columns: per-row work (tree scan, VO build, codec, digest combines) dominates and per-request cost is diluted; writers idle",
		readers:   func(c int) int { return c },
		stream:    (*generator).rangeStream,
		warmReads: 200,
	},
	{
		name:    "write.batch",
		why:     "one writer, 128-tuple batches over all 4 shards, refresh, read-your-write, delete: group commit, signing, WAL fsync, delta build and apply; the read path does almost nothing",
		readers: func(int) int { return 0 },
		runLen:  32,
	},
	{
		name:                "mixed.rw",
		why:                 "read.point readers beside a 50 ms writer: every refresh republishes snapshots and the signed map, so per-snapshot caches go stale 20 times a second and show their cost",
		readers:             func(c int) int { return max(c-1, 1) },
		stream:              (*generator).pointStream,
		runLen:              16,
		period:              50 * time.Millisecond,
		warmReads:           1000,
		tracedReadsPerRound: 25,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// sizes are the knobs -smoke shrinks; everything else is a constant.
type sizes struct {
	rows         int
	setupRepeats int // set-ups per timed run; setup_s is their median
	warmRounds   int // unmeasured write rounds before the measured part
	warmDivisor  int // warmReads is divided by this
	tracedOps    int // reads (or rounds*7) in the traced pass
}

var (
	fullSizes  = sizes{rows: 32768, setupRepeats: 3, warmRounds: deleteLag + 16, warmDivisor: 1, tracedOps: 2000}
	smokeSizes = sizes{rows: 1024, setupRepeats: 1, warmRounds: 4, warmDivisor: 20, tracedOps: 40}
)

// numClients is C: no more load-generating goroutines than processors,
// four at most.
func numClients() int { return min(runtime.NumCPU(), 4) }

// opLog is what one load-generating goroutine records. Plain slices of
// numbers: the timed run allocates no spans.
type opLog struct {
	attempted int
	failed    map[string]int
	firstErr  error

	// One entry per verified query: when it returned (ns since the
	// measured part began) and how long it took.
	queryEnd, queryNs []int64
	voBytes           []float64

	commitNs, visibleNs, lateNs []int64
	tuples                      int
}

func (l *opLog) fail(err error) {
	if l.failed == nil {
		l.failed = make(map[string]int)
	}
	l.failed[classify(err)]++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// try counts one attempted operation and its failure, if any.
func (l *opLog) try(err error) bool {
	l.attempted++
	if err != nil {
		l.fail(err)
		return false
	}
	return true
}

func (l *opLog) merge(o *opLog) {
	l.attempted += o.attempted
	for class, n := range o.failed {
		if l.failed == nil {
			l.failed = make(map[string]int)
		}
		l.failed[class] += n
	}
	if l.firstErr == nil {
		l.firstErr = o.firstErr
	}
	l.queryEnd = append(l.queryEnd, o.queryEnd...)
	l.queryNs = append(l.queryNs, o.queryNs...)
	l.voBytes = append(l.voBytes, o.voBytes...)
	l.commitNs = append(l.commitNs, o.commitNs...)
	l.visibleNs = append(l.visibleNs, o.visibleNs...)
	l.lateNs = append(l.lateNs, o.lateNs...)
	l.tuples += o.tuples
}

func (l *opLog) failures() int {
	n := 0
	for _, c := range l.failed {
		n += c
	}
	return n
}

// read makes one verified, oracle-checked query and records it.
func (l *opLog) read(ctx context.Context, d *deployment, op readOp, start time.Time) bool {
	t0 := time.Now()
	res, err := d.query(ctx, op)
	t1 := time.Now()
	if !l.try(err) {
		return false
	}
	l.queryEnd = append(l.queryEnd, t1.Sub(start).Nanoseconds())
	l.queryNs = append(l.queryNs, t1.Sub(t0).Nanoseconds())
	l.voBytes = append(l.voBytes, float64(res.VOBytes))
	return true
}

// round runs one write round: InsertBatch, RefreshAll, a verified read of
// the batch's last key, then the deletes of deleteLag rounds ago. due is
// when the round was scheduled; the commit is timed from there, so a
// stall charges the rounds it delays.
func (l *opLog) round(ctx context.Context, d *deployment, w writeRound, due, start time.Time) {
	l.lateNs = append(l.lateNs, time.Since(due).Nanoseconds())
	if !l.try(d.insert(ctx, w.insert)) {
		return
	}
	ack := time.Now()
	l.commitNs = append(l.commitNs, ack.Sub(due).Nanoseconds())
	l.tuples += len(w.insert) * w.insert[0].n
	_, err := d.edge.RefreshAll(ctx)
	if !l.try(err) {
		return
	}
	if k := w.last(); l.read(ctx, d, readOp{lo: k, hi: k}, start) {
		l.visibleNs = append(l.visibleNs, time.Since(ack).Nanoseconds())
	}
	if len(w.delete) > 0 {
		l.attempted += len(w.delete) - 1 // one DeleteRange per run; try counts the last
		l.try(d.deleteRuns(ctx, w.delete))
	}
}

// warmUp runs the workload's fixed unmeasured work.
func warmUp(ctx context.Context, d *deployment, spec workloadSpec, sz sizes, streams []readStream, ws *writeStream) error {
	var l opLog
	now := time.Now()
	for _, s := range streams {
		for i := 0; i < spec.warmReads/sz.warmDivisor; i++ {
			l.read(ctx, d, s(), now)
		}
	}
	if ws != nil {
		for i := 0; i < sz.warmRounds; i++ {
			l.round(ctx, d, ws.next(), time.Now(), now)
		}
	}
	if l.firstErr != nil {
		return fmt.Errorf("warm-up: %d of %d operations failed, first: %w", l.failures(), l.attempted, l.firstErr)
	}
	return nil
}

// prepared is a deployment set up and warmed for one workload.
type prepared struct {
	d       *deployment
	streams []readStream
	ws      *writeStream
}

// prepare sets the deployment up and warms it: everything setup_s counts.
func prepare(ctx context.Context, spec workloadSpec, sz sizes, seed int64, tmp string) (*prepared, error) {
	gen := newGenerator(seed, sz.rows)
	d, err := deploy(ctx, gen, tmp)
	if err != nil {
		return nil, err
	}
	p := &prepared{d: d}
	for n := 0; n < spec.readers(numClients()); n++ {
		p.streams = append(p.streams, spec.stream(gen, n))
	}
	if spec.runLen > 0 {
		p.ws = gen.writeStream(spec.runLen)
	}
	if err := warmUp(ctx, d, spec, sz, p.streams, p.ws); err != nil {
		d.close()
		return nil, err
	}
	return p, nil
}

// runTimed is the measured part: the workload's readers and writer run
// until the time is up, then the log is merged.
func runTimed(ctx context.Context, p *prepared, spec workloadSpec, seconds float64) (*opLog, time.Duration) {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	logs := make([]*opLog, len(p.streams)+1)
	var wg sync.WaitGroup
	for n, s := range p.streams {
		l := &opLog{}
		logs[n] = l
		wg.Add(1)
		go func(s readStream) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				l.read(ctx, p.d, s(), start)
			}
		}(s)
	}
	wl := &opLog{}
	logs[len(p.streams)] = wl
	if p.ws != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				due := time.Now()
				if spec.period > 0 {
					due = start.Add(time.Duration(i) * spec.period)
					time.Sleep(time.Until(due))
				}
				if !due.Before(deadline) {
					return
				}
				wl.round(ctx, p.d, p.ws.next(), due, start)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := &opLog{}
	for _, l := range logs {
		total.merge(l)
	}
	return total, elapsed
}

// slices cuts the measured part's verified queries, in completion order,
// into n slices of equal count and returns each slice's rate in queries
// per second and its median latency in microseconds.
//
// The end-to-end rate and latency are quartiles over these slices, on the
// undisturbed side: the upper quartile of the rates, the lower quartile of
// the medians. The reference sandbox is a shared host whose speed drifts
// by a tenth for tens of seconds at a time; that interference only ever
// slows a slice down, so the quartile towards the fast side repeats from
// run to run where the median of the whole run does not. A regression in
// the program moves every slice, and the quartile with them.
func (l *opLog) slices(n int) (rates, p50s []float64) {
	order := make([]int, len(l.queryEnd))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return l.queryEnd[order[i]] < l.queryEnd[order[j]] })
	from, fromNs := 0, int64(0)
	for i := 1; i <= n; i++ {
		to := i * len(order) / n
		if to == from {
			continue
		}
		lat := make([]float64, 0, to-from)
		for _, k := range order[from:to] {
			lat = append(lat, float64(l.queryNs[k])/1e3)
		}
		endNs := l.queryEnd[order[to-1]]
		if ns := endNs - fromNs; ns > 0 {
			rates = append(rates, float64(to-from)/(float64(ns)/1e9))
			p50s = append(p50s, median(lat))
		}
		from, fromNs = to, endNs
	}
	return rates, p50s
}

func toFloats(ns []int64, div float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / div
	}
	return out
}
